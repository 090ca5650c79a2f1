"""Robust estimation under injected outliers (failure-injection tests)."""

import numpy as np
import pytest
from dataclasses import replace

from repro.data.sequences import EUROC_SEQUENCES, make_sequence
from repro.data.tracks import TrackerConfig
from repro.errors import ConfigurationError
from repro.slam import EstimatorConfig, SlidingWindowEstimator
from tests.test_slam_problem import tiny_problem


def outlier_sequence(outlier_probability, duration=6.0):
    config = replace(
        EUROC_SEQUENCES["MH_01"],
        duration=duration,
        tracker=TrackerConfig(outlier_probability=outlier_probability),
    )
    return make_sequence(config)


class TestHuberKernel:
    def test_costs_agree_for_inliers(self):
        problem, _ = tiny_problem(noise=0.3)
        robust = replace_huber(problem, 50.0)  # delta far above residuals
        assert robust.cost() == pytest.approx(problem.cost(), rel=1e-9)

    def test_huber_bounds_outlier_cost(self):
        problem, _ = tiny_problem(noise=0.3)
        # Corrupt one observation grossly and isolate its contribution.
        factor = problem.visual_factors[0]
        factor.pixel = factor.pixel + 300.0
        residual = factor.residual_only(
            problem.camera,
            problem.states[factor.anchor],
            problem.states[factor.target],
            problem.inv_depths[factor.feature_id],
        )
        norm = np.linalg.norm(residual)
        quadratic_cost = 0.5 * factor.weight * norm**2
        robust = replace_huber(problem, 2.0)
        huber_cost = robust._visual_cost(residual, factor.weight)
        # Huber grows linearly, not quadratically: orders less cost.
        assert huber_cost < quadratic_cost / 50.0
        assert robust.cost() < problem.cost()

    def test_huber_downweights_in_linear_system(self):
        problem, _ = tiny_problem(noise=0.3)
        problem.visual_factors[0].pixel = problem.visual_factors[0].pixel + 300.0
        plain = problem.build_linear_system()
        robust = replace_huber(problem, 2.0)
        robust_system = robust.build_linear_system()
        fid = problem.visual_factors[0].feature_id
        index = plain.feature_ids.index(fid)
        assert robust_system.u_diag[index] < plain.u_diag[index]

    def test_stepped_preserves_kernel(self):
        problem, _ = tiny_problem()
        robust = replace_huber(problem, 3.0)
        system = robust.build_linear_system()
        d_lambda, d_state = system.solve(damping=1e-3)
        assert robust.stepped(d_lambda, d_state, system).huber_delta == 3.0


def replace_huber(problem, delta):
    from repro.slam.problem import WindowProblem

    return WindowProblem(
        camera=problem.camera,
        states=problem.states,
        inv_depths=problem.inv_depths,
        visual_factors=problem.visual_factors,
        imu_factors=problem.imu_factors,
        priors=problem.priors,
        huber_delta=delta,
    )


class TestOutlierInjection:
    def test_tracker_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrackerConfig(outlier_probability=1.0)

    def test_outliers_actually_injected(self):
        clean = outlier_sequence(0.0, duration=3.0)
        dirty = outlier_sequence(0.3, duration=3.0)
        # Compare shared observations; with p=0.3 many pixels must differ
        # by far more than measurement noise.
        diffs = []
        for frame in range(clean.num_keyframes):
            a, b = clean.observations[frame], dirty.observations[frame]
            _, rows_a, rows_b = np.intersect1d(
                a.ids, b.ids, assume_unique=True, return_indices=True
            )
            diffs.append(np.linalg.norm(a.pixels[rows_a] - b.pixels[rows_b], axis=1))
        diffs = np.concatenate(diffs)
        assert (diffs > 50.0).mean() > 0.1

    @pytest.mark.slow
    def test_huber_survives_outliers(self):
        """Failure injection: with 10% gross mismatches the robust
        pipeline (Huber + chi-square gating) stays at centimeter-level
        accuracy while the quadratic one collapses."""
        sequence = outlier_sequence(0.10, duration=6.0)
        plain = SlidingWindowEstimator(
            EstimatorConfig(window_size=8)
        ).run(sequence)
        robust = SlidingWindowEstimator(
            EstimatorConfig(window_size=8, huber_delta=2.5, outlier_gate_px=8.0)
        ).run(sequence)
        plain_error = np.mean([w.relative_error for w in plain.windows[5:]])
        robust_error = np.mean([w.relative_error for w in robust.windows[5:]])
        assert robust_error < plain_error / 10.0
        assert robust_error < 0.10  # still centimeter-grade under outliers
