"""Tests for CPU baselines, the dense LM reference, and comparators."""

import numpy as np
import pytest

from repro.baselines import (
    ARM_A57,
    BAX,
    HLS_CHOLESKY,
    INTEL_COMET_LAKE,
    PI_BA,
    PISCES,
    PRIOR_ACCELERATORS,
    ZHANG_RSS17,
    dense_lm_solve,
)
from repro.errors import ConfigurationError
from repro.hw import REFERENCE_WORKLOAD
from repro.hw.latency import (
    cholesky_latency,
    nls_iteration_latency,
    window_latency_seconds,
)
from repro.slam.nls import LMConfig, levenberg_marquardt
from repro.synth import high_perf_design
from tests.test_slam_problem import tiny_problem


class TestCpuPlatforms:
    def test_platform_validation(self):
        from repro.baselines.cpu import CpuPlatform

        with pytest.raises(ConfigurationError):
            CpuPlatform("bad", 0, 1e9, 1e8, 10.0)
        with pytest.raises(ConfigurationError):
            CpuPlatform("bad", 4, 1e9, -1.0, 10.0)

    def test_intel_faster_than_arm(self):
        t_intel = INTEL_COMET_LAKE.window_time(REFERENCE_WORKLOAD)
        t_arm = ARM_A57.window_time(REFERENCE_WORKLOAD)
        assert t_intel < t_arm

    def test_arm_lower_energy_than_intel(self):
        """The Arm board burns far less power; its energy per window is
        lower despite being slower — the paper's speedup-vs-energy split."""
        e_intel = INTEL_COMET_LAKE.window_energy(REFERENCE_WORKLOAD)
        e_arm = ARM_A57.window_energy(REFERENCE_WORKLOAD)
        assert e_arm < e_intel

    def test_headline_speedups(self):
        """Sec. 7.4: High-Perf achieves ~6.2x over Intel and ~39.7x over
        Arm on the full-scale workload (we assert the band, not the digit)."""
        hp = high_perf_design()
        t_hp = window_latency_seconds(REFERENCE_WORKLOAD, hp.config)
        intel_speedup = INTEL_COMET_LAKE.window_time(REFERENCE_WORKLOAD) / t_hp
        arm_speedup = ARM_A57.window_time(REFERENCE_WORKLOAD) / t_hp
        assert 4.0 < intel_speedup < 9.0
        assert 25.0 < arm_speedup < 55.0

    def test_headline_energy_reductions(self):
        hp = high_perf_design()
        t_hp = window_latency_seconds(REFERENCE_WORKLOAD, hp.config)
        e_hp = t_hp * hp.power_w
        intel_ratio = INTEL_COMET_LAKE.window_energy(REFERENCE_WORKLOAD) / e_hp
        arm_ratio = ARM_A57.window_energy(REFERENCE_WORKLOAD) / e_hp
        assert 50.0 < intel_ratio < 120.0
        assert 9.0 < arm_ratio < 25.0

    def test_time_scales_with_workload(self):
        from repro.data.stats import WindowStats

        small = WindowStats(50, 4.0, 8, 6, num_observations=200)
        assert INTEL_COMET_LAKE.window_time(small) < INTEL_COMET_LAKE.window_time(
            REFERENCE_WORKLOAD
        )


class TestDenseLmReference:
    def test_matches_structured_solver(self):
        """The D-type Schur path and the dense (ceres-style) solver must
        land on the same optimum — the correctness contract."""
        problem, _ = tiny_problem(num_features=10)
        structured = levenberg_marquardt(problem, LMConfig(max_iterations=12))
        dense = dense_lm_solve(problem, LMConfig(max_iterations=12))
        assert dense.final_cost == pytest.approx(structured.final_cost, rel=1e-4)
        for fid in structured.problem.states:
            assert np.allclose(
                structured.problem.states[fid].position,
                dense.problem.states[fid].position,
                atol=1e-5,
            )

    def test_reduces_cost(self):
        problem, _ = tiny_problem()
        result = dense_lm_solve(problem)
        assert result.final_cost < result.initial_cost


class TestPriorAccelerators:
    def test_catalog(self):
        assert set(PRIOR_ACCELERATORS) == {"pi-ba", "bax", "zhang-rss17", "pisces"}

    def test_paper_ratios_reproduced(self):
        """Sec. 7.5 headline factors against the High-Perf design,
        normalized per NLS iteration."""
        hp = high_perf_design()
        t_iter = nls_iteration_latency(REFERENCE_WORKLOAD, hp.config) / 143e6
        e_iter = t_iter * hp.power_w
        assert PI_BA.speedup_of(t_iter) == pytest.approx(137, rel=0.25)
        assert PI_BA.energy_reduction_of(e_iter) == pytest.approx(132, rel=0.25)
        assert BAX.speedup_of(t_iter) == pytest.approx(9, rel=0.3)
        # BAX: Archytas consumes ~44% less energy.
        assert 1.0 - e_iter / BAX.per_iteration_j == pytest.approx(0.44, abs=0.15)
        assert ZHANG_RSS17.speedup_of(t_iter) > 15
        assert PISCES.speedup_of(t_iter) == pytest.approx(5.4, rel=0.3)
        # PISCES: Archytas spends ~3x MORE energy (it's a low-power design).
        assert e_iter / PISCES.per_iteration_j == pytest.approx(3.0, rel=0.4)

    def test_marginalization_support_flags(self):
        assert not PI_BA.supports_marginalization
        assert not BAX.supports_marginalization
        assert ZHANG_RSS17.supports_marginalization

    def test_validation(self):
        from repro.baselines.accelerators import PriorAccelerator

        with pytest.raises(ConfigurationError):
            PriorAccelerator("bad", -1.0, 1.0)


class TestHlsComparator:
    def test_slowdown_matches_paper(self):
        """Sec. 7.5: the HLS Cholesky is ~16.4x slower than the hand
        design (same matrix, each at its own achieved clock)."""
        hp = high_perf_design()
        m = 225
        hand_cycles = cholesky_latency(m, hp.config.s)
        slowdown = HLS_CHOLESKY.slowdown_vs(hand_cycles, 143e6, m)
        assert slowdown == pytest.approx(16.4, rel=0.3)

    def test_lower_clock_and_more_resources(self):
        assert HLS_CHOLESKY.frequency_hz < 143e6 * 0.75
        assert HLS_CHOLESKY.resource_factor == pytest.approx(2.0)

    def test_cycles_grow_with_matrix(self):
        assert HLS_CHOLESKY.factorization_cycles(100) < HLS_CHOLESKY.factorization_cycles(200)

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            HLS_CHOLESKY.factorization_cycles(0)
