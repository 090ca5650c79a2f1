"""Batched-backend equivalence: the vectorized hot loop vs the factor loop.

The batched linearization/assembly path (``repro.slam.batch``) must be a
numerical clone of the per-factor reference loop — same normal
equations, same cost, same trajectories — so the loop backend stays a
trustworthy oracle and the speedup is free of behavioral drift.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.data import make_euroc_sequence, make_sequence
from repro.errors import SolverError
from repro.geometry import SE3
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import transform_points_batch, transform_to_body_batch
from repro.geometry.so3 import hat, hat_batch, so3_exp
from repro.scenarios import DEGENERATE_REGIMES, scenario_sequence_config
from repro.slam import EstimatorConfig, SlidingWindowEstimator
from repro.slam.batch import VisualFactorBatch, linearize_visual_batch
from repro.slam.nls import LMConfig, levenberg_marquardt
from repro.slam.problem import WindowProblem
from repro.testing.workloads import make_random_window as random_window

# The batched kernels reorder floating-point accumulation only at the
# BLAS/einsum level; measured deviations are ~1e-12 absolute on blocks of
# magnitude 1e7, far inside the ISSUE's atol=1e-10 budget.
TOL = dict(rtol=1e-12, atol=1e-10)


def both_backends(problem: WindowProblem) -> tuple[WindowProblem, WindowProblem]:
    """The same window under the batched and loop backends."""
    loop = replace(problem, backend="loop")
    batched = replace(problem, backend="batched")
    return batched, loop


def assert_systems_match(batched, loop):
    assert batched.feature_ids == loop.feature_ids
    assert batched.frame_ids == loop.frame_ids
    np.testing.assert_allclose(batched.u_diag, loop.u_diag, **TOL)
    np.testing.assert_allclose(batched.w_block, loop.w_block, **TOL)
    np.testing.assert_allclose(batched.v_block, loop.v_block, **TOL)
    np.testing.assert_allclose(batched.b_x, loop.b_x, **TOL)
    np.testing.assert_allclose(batched.b_y, loop.b_y, **TOL)


class TestBackendEquivalence:
    """Property-style: batched == loop over randomized windows."""

    @pytest.mark.parametrize("seed", range(6))
    def test_build_linear_system_matches(self, seed):
        problem = random_window(
            seed, num_keyframes=3 + seed % 3, num_features=6 + 3 * seed
        )
        batched, loop = both_backends(problem)
        assert_systems_match(batched.build_linear_system(), loop.build_linear_system())

    @pytest.mark.parametrize("seed", range(6))
    def test_cost_matches(self, seed):
        problem = random_window(
            seed, num_keyframes=3 + seed % 3, num_features=6 + 3 * seed
        )
        batched, loop = both_backends(problem)
        assert batched.cost() == pytest.approx(loop.cost(), rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_behind_camera_observations_are_culled_identically(self, seed):
        problem = random_window(seed, num_features=10, lift_last_keyframe=6.0)
        batched, loop = both_backends(problem)
        # The lift must actually push some (not all) rows behind the camera,
        # otherwise this exercises nothing.
        lin = linearize_visual_batch(
            batched.camera,
            batched._visual_batch(),
            *batched._pose_stacks(batched._sorted_ids()[0]),
            batched._inv_depth_vector(batched._sorted_ids()[1]),
            huber_delta=batched.huber_delta,
        )
        assert (~lin.valid).any()
        assert lin.valid.any()
        assert_systems_match(batched.build_linear_system(), loop.build_linear_system())
        assert batched.cost() == pytest.approx(loop.cost(), rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_huber_active_windows_match(self, seed):
        # Random pixels make almost every residual exceed a 0.5 px delta,
        # so the IRLS reweighting path is fully exercised.
        problem = random_window(seed, num_features=10, huber_delta=0.5)
        batched, loop = both_backends(problem)
        lin = linearize_visual_batch(
            batched.camera,
            batched._visual_batch(),
            *batched._pose_stacks(batched._sorted_ids()[0]),
            batched._inv_depth_vector(batched._sorted_ids()[1]),
            huber_delta=0.5,
        )
        base = batched._visual_batch().weights
        assert (lin.weights[lin.valid] < base[lin.valid]).any()
        assert_systems_match(batched.build_linear_system(), loop.build_linear_system())
        assert batched.cost() == pytest.approx(loop.cost(), rel=1e-12, abs=1e-10)

    def test_empty_feature_window_matches(self):
        problem = random_window(0, num_features=4)
        empty = replace(problem, inv_depths={}, visual_factors=[])
        batched, loop = both_backends(empty)
        sys_batched = batched.build_linear_system()
        sys_loop = loop.build_linear_system()
        assert sys_batched.u_diag.shape == (0,)
        assert_systems_match(sys_batched, sys_loop)
        assert batched.cost() == pytest.approx(loop.cost(), rel=1e-12, abs=1e-10)

    def test_lm_solves_agree_step_for_step(self):
        batched, loop = both_backends(random_window(1, num_features=14))
        config = LMConfig(max_iterations=5)
        result_batched = levenberg_marquardt(batched, config)
        result_loop = levenberg_marquardt(loop, config)
        assert result_batched.iterations == result_loop.iterations
        assert result_batched.accepted_steps == result_loop.accepted_steps
        assert result_batched.final_cost == pytest.approx(
            result_loop.final_cost, rel=1e-10
        )
        for fid in result_batched.problem.states:
            np.testing.assert_allclose(
                result_batched.problem.states[fid].pose.translation,
                result_loop.problem.states[fid].pose.translation,
                rtol=1e-9,
                atol=1e-10,
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError):
            replace(random_window(0), backend="gpu")


class TestBatchedGeometryKernels:
    """The SoA kernels against their scalar counterparts."""

    def test_hat_batch_matches_hat(self):
        rng = np.random.default_rng(0)
        omegas = rng.normal(size=(7, 3))
        batched = hat_batch(omegas)
        for i, omega in enumerate(omegas):
            np.testing.assert_array_equal(batched[i], hat(omega))

    def test_transform_batches_match_se3(self):
        rng = np.random.default_rng(1)
        poses = [
            SE3(so3_exp(rng.normal(size=3)), rng.normal(size=3)) for _ in range(5)
        ]
        points = rng.normal(size=(5, 3)) + np.array([0.0, 0.0, 4.0])
        rotations = np.stack([p.rotation for p in poses])
        translations = np.stack([p.translation for p in poses])
        forward = transform_points_batch(rotations, translations, points)
        backward = transform_to_body_batch(rotations, translations, points)
        for i, pose in enumerate(poses):
            np.testing.assert_allclose(forward[i], pose.transform(points[i]), rtol=1e-14)
            np.testing.assert_allclose(
                backward[i], pose.transform_to_body(points[i]), rtol=1e-13, atol=1e-14
            )

    def test_projection_jacobians_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        camera = PinholeCamera()
        poses = [
            SE3(so3_exp(rng.normal(scale=0.2, size=3)), rng.normal(scale=0.5, size=3))
            for _ in range(6)
        ]
        points_w = rng.uniform(-1.0, 1.0, size=(6, 3)) + np.array([0.0, 0.0, 5.0])
        rotations = np.stack([p.rotation for p in poses])
        translations = np.stack([p.translation for p in poses])
        points_c = transform_to_body_batch(rotations, translations, points_w)
        valid, d_pose, d_point = camera.projection_jacobians_batch(rotations, points_c)
        assert valid.all()
        pixels = camera.project_camera_points_batch(points_c)
        for i, pose in enumerate(poses):
            pc, d_pose_ref, d_point_ref = camera.projection_jacobians(
                pose, points_w[i]
            )
            np.testing.assert_allclose(points_c[i], pc, rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(d_pose[i], d_pose_ref, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(d_point[i], d_point_ref, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(
                pixels[i], camera.project(pose, points_w[i]), rtol=1e-13
            )

    def test_projection_batch_flags_behind_camera(self):
        camera = PinholeCamera()
        points_c = np.array([[0.1, 0.0, 4.0], [0.1, 0.0, -2.0], [0.0, 0.0, 0.0]])
        rotations = np.broadcast_to(np.eye(3), (3, 3, 3))
        valid, d_pose, d_point = camera.projection_jacobians_batch(rotations, points_c)
        np.testing.assert_array_equal(valid, [True, False, False])
        assert np.isfinite(d_pose).all() and np.isfinite(d_point).all()

    def test_from_factors_layout(self):
        problem = random_window(3, num_features=8)
        frame_ids, feature_ids = problem._sorted_ids()
        batch = VisualFactorBatch.from_factors(
            problem.visual_factors,
            {fid: i for i, fid in enumerate(frame_ids)},
            {fid: i for i, fid in enumerate(feature_ids)},
        )
        n = len(problem.visual_factors)
        assert batch.num_observations == n
        assert batch.bearings.shape == (n, 3)
        assert batch.pixels.shape == (n, 2)
        for row, factor in enumerate(problem.visual_factors):
            assert frame_ids[batch.anchor_index[row]] == factor.anchor
            assert frame_ids[batch.target_index[row]] == factor.target
            assert feature_ids[batch.feature_index[row]] == factor.feature_id
            np.testing.assert_array_equal(batch.bearings[row], factor.bearing)


class TestImuResidualOnly:
    def test_residual_only_matches_linearize(self):
        problem = random_window(4)
        for factor in problem.imu_factors:
            state_i = problem.states[factor.frame_i]
            state_j = problem.states[factor.frame_j]
            lin = factor.linearize(state_i, state_j)
            np.testing.assert_array_equal(
                factor.residual_only(state_i, state_j), lin.residual
            )
            np.testing.assert_array_equal(factor.information(), lin.information)


class TestFullRunRegression:
    @pytest.fixture(scope="class")
    def runs(self):
        sequence = make_euroc_sequence("MH_01", duration=5.0)
        results = {}
        for backend in ("loop", "batched"):
            estimator = SlidingWindowEstimator(
                EstimatorConfig(
                    window_size=6, lm=LMConfig(max_iterations=4), backend=backend
                )
            )
            results[backend] = estimator.run(sequence)
        return results

    def test_trajectories_identical_across_backends(self, runs):
        loop = np.stack(runs["loop"].estimated_positions)
        batched = np.stack(runs["batched"].estimated_positions)
        assert loop.shape == batched.shape
        assert np.abs(loop - batched).max() < 1e-8

    def test_window_decisions_identical(self, runs):
        for w_loop, w_batched in zip(runs["loop"].windows, runs["batched"].windows):
            assert w_loop.iterations == w_batched.iterations
            assert w_loop.accepted_steps == w_batched.accepted_steps
            assert w_loop.final_cost == pytest.approx(w_batched.final_cost, rel=1e-9)

    @pytest.fixture(scope="class")
    def huber_runs(self):
        """Both backends under the Huber kernel on every degenerate regime.

        Marginalization follows the backend too, so each sliding step
        folds its prior through the batched kernels or the factor loop.
        """
        runs = {}
        for regime in DEGENERATE_REGIMES:
            sequence = make_sequence(scenario_sequence_config(regime, 0, duration=3.0))
            runs[regime] = {
                backend: SlidingWindowEstimator(
                    EstimatorConfig(huber_delta=2.0, backend=backend)
                ).run(sequence)
                for backend in ("loop", "batched")
            }
        return runs

    @pytest.mark.parametrize("regime", DEGENERATE_REGIMES)
    def test_huber_regime_runs_identical_across_backends(self, huber_runs, regime):
        loop, batched = huber_runs[regime]["loop"], huber_runs[regime]["batched"]
        assert len(loop.windows) == len(batched.windows) > 0
        positions_loop = np.stack(loop.estimated_positions)
        positions_batched = np.stack(batched.estimated_positions)
        assert np.abs(positions_loop - positions_batched).max() < 1e-8
        for w_loop, w_batched in zip(loop.windows, batched.windows):
            assert w_loop.iterations == w_batched.iterations
            assert w_loop.accepted_steps == w_batched.accepted_steps

    def test_stage_timings_populated(self, runs):
        run = runs["batched"]
        summary = run.timing_summary()
        for stage in ("linearize_s", "assemble_s", "solve_s", "update_s"):
            assert summary[stage] > 0.0
        assert summary["total_s"] == pytest.approx(
            sum(summary[s] for s in ("linearize_s", "assemble_s", "solve_s", "update_s"))
        )
        assert summary["windows_per_second"] > 0.0
        assert all(w.timings.total_s > 0.0 for w in run.windows)

    def test_timings_survive_codec_round_trip(self, runs):
        from repro.engine.codecs import decode_run_result, encode_run_result

        run = runs["batched"]
        arrays, meta = encode_run_result(run)
        decoded = decode_run_result(arrays, meta)
        for original, roundtripped in zip(run.windows, decoded.windows):
            assert original.timings.as_dict() == roundtripped.timings.as_dict()
