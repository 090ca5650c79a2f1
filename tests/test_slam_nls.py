"""Tests for the Levenberg-Marquardt solver."""

import numpy as np
import pytest

from repro.slam.nls import LMConfig, levenberg_marquardt
from tests.test_slam_problem import tiny_problem


class TestLMConfig:
    def test_rejects_bad_iterations(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            LMConfig(max_iterations=0)


class TestLevenbergMarquardt:
    def test_cost_monotone_nonincreasing(self):
        problem, _ = tiny_problem(num_features=8)
        result = levenberg_marquardt(problem, LMConfig(max_iterations=6))
        history = result.cost_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_converges_toward_true_pose(self):
        problem, true_pose1 = tiny_problem(num_features=12, noise=0.5)
        before = np.linalg.norm(problem.states[1].position - true_pose1.translation)
        result = levenberg_marquardt(problem, LMConfig(max_iterations=10))
        after = np.linalg.norm(
            result.problem.states[1].position - true_pose1.translation
        )
        assert after < before
        assert after < 0.03

    def test_iteration_cap_respected(self):
        problem, _ = tiny_problem()
        for cap in (1, 2, 4):
            result = levenberg_marquardt(problem, LMConfig(max_iterations=cap))
            assert result.iterations <= cap

    def test_more_iterations_no_worse(self):
        """The Fig. 12 premise: error decreases with the iteration cap."""
        costs = []
        for cap in (1, 3, 6):
            problem, _ = tiny_problem(num_features=10)
            result = levenberg_marquardt(problem, LMConfig(max_iterations=cap))
            costs.append(result.final_cost)
        assert costs[2] <= costs[1] <= costs[0] + 1e-9

    def test_does_not_mutate_input(self):
        problem, _ = tiny_problem()
        cost_before = problem.cost()
        levenberg_marquardt(problem, LMConfig(max_iterations=4))
        assert problem.cost() == pytest.approx(cost_before)

    def test_result_bookkeeping(self):
        problem, _ = tiny_problem()
        result = levenberg_marquardt(problem, LMConfig(max_iterations=5))
        assert result.initial_cost == result.cost_history[0]
        assert result.final_cost == pytest.approx(result.cost_history[-1])
        assert result.final_cost <= result.initial_cost
        assert result.accepted_steps <= result.iterations
