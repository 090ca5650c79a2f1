"""Tests for the host-FPGA interface model and the two CLIs."""

import pytest

from repro.errors import ConfigurationError
from repro.hw import REFERENCE_WORKLOAD, window_latency_seconds
from repro.runtime.host import (
    CONFIG_BYTES,
    HostLink,
    interface_overhead_fraction,
    window_payload_bytes,
)
from repro.synth import high_perf_design


class TestHostInterface:
    def test_reconfiguration_is_three_bytes(self):
        """Sec. 6.2: the host passes exactly three numbers."""
        base = window_payload_bytes(REFERENCE_WORKLOAD, reconfigured=False)
        with_config = window_payload_bytes(REFERENCE_WORKLOAD, reconfigured=True)
        assert with_config - base == CONFIG_BYTES == 3

    def test_overhead_is_negligible(self):
        """The paper's zero-overhead claim: transfer time is a tiny
        fraction of the window's compute time."""
        design = high_perf_design()
        compute = window_latency_seconds(REFERENCE_WORKLOAD, design.config)
        overhead = interface_overhead_fraction(REFERENCE_WORKLOAD, compute)
        assert overhead < 0.05

    def test_payload_scales_with_window(self):
        from repro.data.stats import WindowStats

        small = WindowStats(
            num_features=50,
            avg_observations=4.0,
            num_keyframes=8,
            num_marginalized=5,
            num_observations=200,
        )
        assert window_payload_bytes(small) < window_payload_bytes(REFERENCE_WORKLOAD)

    def test_link_validation(self):
        with pytest.raises(ConfigurationError):
            HostLink(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ConfigurationError):
            interface_overhead_fraction(REFERENCE_WORKLOAD, 0.0)


class TestSynthCli:
    def test_basic_invocation(self, capsys):
        from repro.synth.__main__ import main

        assert main(["--latency-ms", "30"]) == 0
        out = capsys.readouterr().out
        assert "design" in out and "latency" in out

    def test_infeasible_returns_error(self, capsys):
        from repro.synth.__main__ import main

        assert main(["--latency-ms", "1"]) == 1
        assert "infeasible" in capsys.readouterr().err

    def test_emit_writes_files(self, tmp_path, capsys):
        from repro.synth.__main__ import main

        out_dir = tmp_path / "rtl"
        assert main(["--latency-ms", "40", "--emit", str(out_dir)]) == 0
        files = list(out_dir.glob("*.v"))
        assert len(files) == 7  # six design files + testbench

    def test_board_and_objective_flags(self, capsys):
        from repro.synth.__main__ import main

        assert main(["--board", "virtex7-690t", "--objective", "latency"]) == 0
        assert "Virtex-7" in capsys.readouterr().out


class TestExperimentsCli:
    def test_prints_requested_tables(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["sec33", "sec73"]) == 0
        out = capsys.readouterr().out
        assert "== sec33" in out and "== sec73" in out


class TestHostInterfaceEdgeCases:
    def test_zero_observation_window_ships_only_the_prior(self):
        """A keyframe with no tracked features still costs a transfer —
        but only the marginalization prior, never negative or NaN."""
        from repro.data.stats import WindowStats
        from repro.runtime.host import PRIOR_BYTES_PER_STATE, WORD_BYTES

        empty = WindowStats(
            num_features=0,
            avg_observations=0.0,
            num_keyframes=2,
            num_marginalized=0,
            num_observations=0,
        )
        payload = window_payload_bytes(empty)
        prior_states = empty.state_size * (empty.num_keyframes - 1)
        expected = (
            prior_states * WORD_BYTES
            + prior_states * prior_states * WORD_BYTES / 2
        )
        assert payload == expected > 0
        assert PRIOR_BYTES_PER_STATE == 15 * WORD_BYTES
        # The link still charges its setup latency for the tiny payload.
        link = HostLink()
        assert link.transfer_seconds(payload) >= link.setup_latency_s

    def test_unchanged_config_ships_zero_config_bytes(self):
        """When the runtime controller's decision did not change, the
        3-byte configuration word is NOT retransmitted."""
        base = window_payload_bytes(REFERENCE_WORKLOAD)
        unchanged = window_payload_bytes(REFERENCE_WORKLOAD, reconfigured=False)
        assert unchanged == base  # default is the no-reconfiguration path
        link = HostLink()
        delta = link.transfer_seconds(
            window_payload_bytes(REFERENCE_WORKLOAD, reconfigured=True)
        ) - link.transfer_seconds(base)
        assert delta == pytest.approx(CONFIG_BYTES / link.bandwidth_bytes_per_s)

    def test_transfer_under_one_percent_at_fig11_scale(self):
        """Sec. 6.2 quantitatively: at the fig. 11 reference workload the
        host-link transfer is under 1% of the window's compute time."""
        design = high_perf_design()
        compute = window_latency_seconds(REFERENCE_WORKLOAD, design.config)
        overhead = interface_overhead_fraction(
            REFERENCE_WORKLOAD, compute, reconfigured=True
        )
        assert overhead < 0.01
