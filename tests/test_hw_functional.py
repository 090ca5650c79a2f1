"""Tests for functional hardware execution: same numbers, true cycles."""

import numpy as np
import pytest

from repro.data.stats import WindowStats
from repro.hw import HardwareConfig
from repro.hw.sim.functional import iteration_cycles, run_iteration_functional
from repro.scenarios import REGIMES
from repro.testing.workloads import make_random_window
from tests.test_slam_problem import tiny_problem


def window_counts(problem):
    """The window's counts as the estimator's ``_window_stats`` takes
    them: distinct observed features and observations per feature."""
    features = len({factor.feature_id for factor in problem.visual_factors})
    return WindowStats(
        num_features=features,
        avg_observations=len(problem.visual_factors) / features if features else 0.0,
        num_keyframes=len(problem.states),
        num_marginalized=0,
    )


class TestFunctionalExecution:
    def test_matches_software_solver_exactly(self):
        """The hardware path must produce the same update as the
        software LinearSystem.solve (shared kernels, same order)."""
        problem, _ = tiny_problem(num_features=10)
        config = HardwareConfig(16, 8, 24)
        damping = 1e-4
        hw = run_iteration_functional(problem, config, damping=damping)
        sw_lambda, sw_state = problem.build_linear_system().solve(damping=damping)
        assert np.allclose(hw.d_lambda, sw_lambda, atol=1e-12)
        assert np.allclose(hw.d_state, sw_state, atol=1e-12)

    def test_step_reduces_cost(self):
        problem, _ = tiny_problem(num_features=8)
        hw = run_iteration_functional(problem, HardwareConfig(8, 8, 8), damping=1e-4)
        system = problem.build_linear_system()
        stepped = problem.stepped(hw.d_lambda, hw.d_state, system)
        assert stepped.cost() < problem.cost()

    def test_cycles_positive_and_config_sensitive(self):
        problem, _ = tiny_problem(num_features=12)
        small = run_iteration_functional(problem, HardwareConfig(2, 2, 1))
        big = run_iteration_functional(problem, HardwareConfig(30, 25, 60))
        assert small.cycles > big.cycles > 0

    def test_cholesky_rounds_reported(self):
        problem, _ = tiny_problem(num_features=6)
        config = HardwareConfig(8, 8, 4)
        hw = run_iteration_functional(problem, config)
        # The reduced system is 30x30 (two keyframes); with 4 Update
        # units that is ceil(30 / 4) rounds.
        assert hw.cholesky_rounds == int(np.ceil(30 / config.s))

    def test_seconds_consistent(self):
        problem, _ = tiny_problem()
        hw = run_iteration_functional(problem, HardwareConfig(8, 8, 8))
        assert hw.seconds == pytest.approx(hw.cycles / 143e6)

    @pytest.mark.parametrize("scenario", REGIMES)
    def test_cycles_follow_from_window_counts(self, scenario):
        """Serving-tier functional fidelity prices a window from its
        counts alone; that must equal the timeline over the factored
        matrix, on every regime's shape and across configs."""
        configs = (
            HardwareConfig(2, 2, 1),
            HardwareConfig(16, 8, 24),
            HardwareConfig(30, 25, 60),
        )
        for seed in range(6):
            problem = make_random_window(
                seed,
                num_keyframes=3 + seed % 4,
                num_features=10 + 3 * seed,
                scenario=scenario,
            )
            stats = window_counts(problem)
            for config in configs:
                hw = run_iteration_functional(problem, config)
                expected = (hw.cycles, hw.cholesky_rounds)
                assert iteration_cycles(stats, config) == expected
