"""Tests for the cycle-level simulators and their agreement with the
analytical models (the role Vivado timing played in the paper)."""

import numpy as np
import pytest

from repro.data.stats import WindowStats
from repro.errors import ConfigurationError
from repro.hw import HardwareConfig, REFERENCE_WORKLOAD, window_latency_cycles
from repro.hw.latency import cholesky_latency
from repro.hw.sim import (
    AcceleratorSim,
    JacobianPipeline,
    simulate_cholesky,
    simulate_jacobian_pipeline,
)


class TestCholeskySim:
    def test_matches_analytical_s1(self):
        """With one Update unit the analytical form is exact."""
        sim = simulate_cholesky(m=40, s=1)
        assert sim.total_cycles == pytest.approx(cholesky_latency(40, 1), rel=1e-9)

    @pytest.mark.parametrize("m,s", [(50, 4), (100, 8), (225, 57), (225, 120)])
    def test_close_to_analytical(self, m, s):
        """Equ. 7 approximates each round by max(sE, E + first update);
        the event simulation must stay within a modest envelope."""
        sim = simulate_cholesky(m=m, s=s)
        analytical = cholesky_latency(m, s)
        assert sim.total_cycles == pytest.approx(analytical, rel=0.35)

    def test_round_count(self):
        sim = simulate_cholesky(m=100, s=8)
        assert sim.num_rounds == int(np.ceil(100 / 8))

    def test_more_units_never_slower(self):
        totals = [simulate_cholesky(m=225, s=s).total_cycles for s in (1, 2, 8, 32)]
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_functional_mode_factors_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 20))
        spd = a @ a.T + 20 * np.eye(20)
        sim = simulate_cholesky(s=4, matrix=spd)
        assert sim.factor is not None
        assert np.allclose(sim.factor @ sim.factor.T, spd, atol=1e-8)
        assert sim.total_cycles > 0

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            simulate_cholesky(m=10, s=0)
        with pytest.raises(ConfigurationError):
            simulate_cholesky(m=0, s=2)


class TestJacobianPipelineSim:
    def test_uniform_stream_matches_equ6(self):
        """With constant observation counts the pipeline is perfectly
        balanced: total ~= a * No * Co plus the fill latency."""
        counts = [4] * 100
        pipe = JacobianPipeline()
        sim = simulate_jacobian_pipeline(counts, pipe)
        steady = 100 * 4 * pipe.co
        # Allow for the pipeline fill plus FIFO-quantization slack.
        assert sim.total_cycles == pytest.approx(steady + pipe.feature_latency, rel=0.10)

    def test_variance_adds_stalls(self):
        rng = np.random.default_rng(1)
        bursty = np.clip(rng.poisson(4.0, size=200), 1, None)
        uniform = [4] * 200
        pipe = JacobianPipeline()
        assert (
            simulate_jacobian_pipeline(bursty, pipe).stall_cycles
            >= simulate_jacobian_pipeline(uniform, pipe).stall_cycles
        )

    def test_stage_count_rule(self):
        pipe = JacobianPipeline(co=100.0, feature_latency=600.0)
        # Lf / (No Co) = 600 / (2 * 100) = 3 stages.
        assert pipe.stage_count(2.0) == 3

    def test_requires_observations(self):
        with pytest.raises(ConfigurationError):
            simulate_jacobian_pipeline([])
        with pytest.raises(ConfigurationError):
            simulate_jacobian_pipeline([0, 3])

    def test_deeper_fifo_reduces_stalls(self):
        rng = np.random.default_rng(2)
        counts = np.clip(rng.poisson(6.0, size=300), 1, None)
        shallow = simulate_jacobian_pipeline(counts, JacobianPipeline(fifo_depth=1))
        deep = simulate_jacobian_pipeline(counts, JacobianPipeline(fifo_depth=16))
        assert deep.total_cycles <= shallow.total_cycles


class TestAcceleratorSim:
    def test_agrees_with_analytical_model(self):
        config = HardwareConfig(20, 10, 40)
        sim = AcceleratorSim(config)
        execution = sim.run_window(REFERENCE_WORKLOAD, iterations=6)
        analytical = window_latency_cycles(REFERENCE_WORKLOAD, config, 6)
        assert execution.total_cycles == pytest.approx(analytical, rel=0.35)

    def test_phase_breakdown_sums_to_total(self):
        sim = AcceleratorSim(HardwareConfig(10, 10, 20))
        execution = sim.run_window(REFERENCE_WORKLOAD, iterations=3)
        # Feature pipeline phases overlap internally but phases are
        # serialized, so the sum of per-phase cycles >= the total is not
        # expected; instead the recorded phases must cover the total.
        assert execution.total_cycles <= sum(execution.phase_cycles.values()) + 1e-6

    def test_energy_positive_and_consistent(self):
        sim = AcceleratorSim(HardwareConfig(10, 10, 20))
        execution = sim.run_window(REFERENCE_WORKLOAD)
        assert execution.energy_j > 0
        assert execution.energy_j == pytest.approx(
            execution.seconds * sim.power_model.power(sim.config)
        )

    def test_bigger_config_faster(self):
        small = AcceleratorSim(HardwareConfig(2, 2, 2)).run_window(REFERENCE_WORKLOAD)
        big = AcceleratorSim(HardwareConfig(30, 25, 60)).run_window(REFERENCE_WORKLOAD)
        assert big.total_cycles < small.total_cycles

    def test_explicit_observation_counts(self):
        stats = WindowStats(
            num_features=10, avg_observations=3.0, num_keyframes=5, num_marginalized=2
        )
        counts = np.array([3.0] * 10)
        execution = AcceleratorSim(HardwareConfig(4, 4, 8)).run_window(
            stats, iterations=2, observation_counts=counts
        )
        assert execution.total_cycles > 0

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigurationError):
            AcceleratorSim(HardwareConfig(4, 4, 8)).run_window(REFERENCE_WORKLOAD, 0)
