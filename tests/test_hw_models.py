"""Tests for the analytical latency/resource/power models (Sec. 4-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hw import (
    DEFAULT_POWER_MODEL,
    DEFAULT_RESOURCE_MODEL,
    KINTEX7_160T,
    REFERENCE_WORKLOAD,
    VIRTEX7_690T,
    ZC706,
    HardwareConfig,
    LatencyModel,
    cholesky_latency,
    dschur_feature_latency,
    fit_linear_model,
    fit_power_model,
    jacobian_feature_latency,
    mschur_latency,
    window_latency_cycles,
    window_latency_seconds,
)
from repro.hw.config import ND_RANGE, NM_RANGE, S_RANGE, design_space_size
from repro.hw.latency import EVALUATE_LATENCY
from repro.hw.power import synthetic_power_samples


def configs():
    return st.builds(
        HardwareConfig,
        nd=st.integers(*ND_RANGE),
        nm=st.integers(*NM_RANGE),
        s=st.integers(*S_RANGE),
    )


class TestHardwareConfig:
    def test_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            HardwareConfig(nd=0)
        with pytest.raises(ConfigurationError):
            HardwareConfig(s=S_RANGE[1] + 1)
        with pytest.raises(ConfigurationError):
            HardwareConfig(nd=2.5)  # type: ignore[arg-type]

    def test_dominates(self):
        small = HardwareConfig(2, 2, 2)
        big = HardwareConfig(4, 4, 4)
        assert small.dominates(big)
        assert not big.dominates(small)

    def test_design_space_size_matches_paper(self):
        """Sec. 7.3: the space contains about 90,000 designs."""
        assert design_space_size() == 90_000


class TestLatencyComponents:
    def test_jacobian_equ6(self):
        assert jacobian_feature_latency(4.0) == pytest.approx(
            4.0 * jacobian_feature_latency(1.0)
        )

    def test_dschur_equ9_scaling(self):
        # (6 No)^2 / nd: quadratic in No, inverse in nd.
        base = dschur_feature_latency(4.0, 1)
        assert dschur_feature_latency(8.0, 1) == pytest.approx(4 * base)
        assert dschur_feature_latency(4.0, 4) == pytest.approx(base / 4)

    def test_cholesky_monotone_in_m(self):
        lat = [cholesky_latency(m, 8) for m in (10, 50, 100, 200)]
        assert all(b > a for a, b in zip(lat, lat[1:]))

    def test_cholesky_s1_closed_form(self):
        """With one Update unit every round is one iteration: the total is
        sum_i max(E, E + work_i) = m E + total update work."""
        m = 40
        expected = sum(
            max(EVALUATE_LATENCY, EVALUATE_LATENCY + (m - k - 1) * (m - k) / 2)
            for k in range(m)
        )
        assert cholesky_latency(m, 1) == pytest.approx(expected)

    def test_cholesky_more_units_helps_then_saturates(self):
        m = 225
        lat = {s: cholesky_latency(m, s) for s in (1, 4, 16, 64, 120)}
        assert lat[4] < lat[1]
        assert lat[16] < lat[4]
        # The first iteration's update work bounds the achievable latency.
        floor = EVALUATE_LATENCY + (m - 1) * m / 2
        assert lat[120] >= floor

    def test_mschur_inverse_in_nm(self):
        stats = REFERENCE_WORKLOAD
        lat = [mschur_latency(stats, nm) for nm in (1, 2, 8, 25)]
        assert all(b < a for a, b in zip(lat, lat[1:]))

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            dschur_feature_latency(4.0, 0)
        with pytest.raises(ConfigurationError):
            cholesky_latency(0, 4)
        with pytest.raises(ConfigurationError):
            mschur_latency(REFERENCE_WORKLOAD, 0)


class TestWindowLatency:
    @given(configs())
    @settings(max_examples=40, deadline=None)
    def test_positive_and_scales_with_iterations(self, config):
        one = window_latency_cycles(REFERENCE_WORKLOAD, config, iterations=1)
        six = window_latency_cycles(REFERENCE_WORKLOAD, config, iterations=6)
        assert one > 0
        assert six > one
        # Equ. 13: the delta is exactly 5 extra NLS iterations, and the
        # (un-repeated) marginalization keeps six < 6 * one.
        assert six < 6 * one

    @given(configs(), configs())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_knobs(self, c1, c2):
        """A componentwise-larger config is never slower (Equ. 9/10 are
        inverse in the MAC counts; Cholesky is checked separately since
        Equ. 7 is non-monotone in s)."""
        if c1.dominates(c2) and c1.s == c2.s:
            lat1 = window_latency_cycles(REFERENCE_WORKLOAD, c2)
            lat2 = window_latency_cycles(REFERENCE_WORKLOAD, c1)
            assert lat1 <= lat2 + 1e-9

    def test_tbl2_designs_meet_budgets(self):
        """Our synthesized High-Perf / Low-Power analogues must meet the
        paper's 20 ms / 33 ms budgets on the reference workload."""
        model = LatencyModel()
        from repro.synth import high_perf_design, low_power_design

        assert model.seconds(high_perf_design().config) <= 0.020 + 1e-9
        assert model.seconds(low_power_design().config) <= 0.033 + 1e-9

    def test_seconds_consistent_with_cycles(self):
        config = HardwareConfig(8, 8, 16)
        cycles = window_latency_cycles(REFERENCE_WORKLOAD, config)
        seconds = window_latency_seconds(REFERENCE_WORKLOAD, config)
        assert seconds == pytest.approx(cycles / ZC706.frequency_hz)


class TestResourceModel:
    def test_matches_paper_tbl2_high_perf(self):
        """Calibration check: the paper's (28, 19, 97) lands within a few
        percent of its published utilization numbers."""
        usage = DEFAULT_RESOURCE_MODEL.usage(HardwareConfig(28, 19, 97))
        assert usage["lut"] == pytest.approx(136_432, rel=0.08)
        assert usage["bram"] == pytest.approx(255.5, rel=0.08)
        assert usage["dsp"] == pytest.approx(849, rel=0.08)

    def test_matches_paper_tbl2_low_power(self):
        usage = DEFAULT_RESOURCE_MODEL.usage(HardwareConfig(21, 8, 34))
        assert usage["lut"] == pytest.approx(95_777, rel=0.08)
        assert usage["dsp"] == pytest.approx(442, rel=0.08)

    @given(configs(), configs())
    @settings(max_examples=40)
    def test_monotone(self, c1, c2):
        if c1.dominates(c2):
            u1 = DEFAULT_RESOURCE_MODEL.usage(c1)
            u2 = DEFAULT_RESOURCE_MODEL.usage(c2)
            assert all(u1[k] <= u2[k] + 1e-9 for k in u1)

    def test_fits_respects_budget(self):
        big = HardwareConfig(*[ND_RANGE[1], NM_RANGE[1], S_RANGE[1]])
        assert DEFAULT_RESOURCE_MODEL.fits(big, VIRTEX7_690T)
        assert not DEFAULT_RESOURCE_MODEL.fits(big, KINTEX7_160T)

    def test_fit_recovers_coefficients(self):
        rng = np.random.default_rng(0)
        truth = DEFAULT_RESOURCE_MODEL.dsp
        samples = [
            HardwareConfig(
                int(rng.integers(*ND_RANGE) + 1) if False else int(rng.integers(ND_RANGE[0], ND_RANGE[1] + 1)),
                int(rng.integers(NM_RANGE[0], NM_RANGE[1] + 1)),
                int(rng.integers(S_RANGE[0], S_RANGE[1] + 1)),
            )
            for _ in range(12)
        ]
        values = [truth.evaluate(c) for c in samples]
        fitted = fit_linear_model(samples, values)
        assert fitted.base == pytest.approx(truth.base, rel=1e-6)
        assert fitted.per_s == pytest.approx(truth.per_s, rel=1e-6)

    def test_fit_requires_enough_samples(self):
        with pytest.raises(ConfigurationError):
            fit_linear_model([HardwareConfig()], [1.0])


class TestPowerModel:
    def test_linear_in_knobs(self):
        p0 = DEFAULT_POWER_MODEL.power(HardwareConfig(1, 1, 1))
        p1 = DEFAULT_POWER_MODEL.power(HardwareConfig(2, 1, 1))
        assert p1 - p0 == pytest.approx(DEFAULT_POWER_MODEL.per_nd)

    def test_gated_power_between_active_and_static(self):
        static = HardwareConfig(20, 10, 60)
        active = HardwareConfig(10, 5, 30)
        gated = DEFAULT_POWER_MODEL.gated_power(static, active)
        assert DEFAULT_POWER_MODEL.power(active) < gated < DEFAULT_POWER_MODEL.power(static)

    def test_gated_power_rejects_oversized_active(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_POWER_MODEL.gated_power(HardwareConfig(5, 5, 5), HardwareConfig(6, 5, 5))

    def test_regression_fit_close_to_surrogate(self):
        configs_, powers = synthetic_power_samples(count=48)
        fitted = fit_power_model(configs_, powers)
        predictions = np.array([fitted.power(c) for c in configs_])
        assert np.mean(np.abs(predictions - np.array(powers))) < 0.1
