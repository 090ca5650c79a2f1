"""Numeric verification of the factor Jacobians (VJac / IJac semantics)."""

import numpy as np
import pytest

from repro.geometry import SE3, NavState, random_rotation
from repro.geometry.camera import PinholeCamera
from repro.imu import ImuPreintegration
from repro.slam.residuals import (
    ImuFactor,
    PriorFactor,
    VisualFactor,
    make_pose_anchor_prior,
)


@pytest.fixture
def camera():
    return PinholeCamera()


def make_visual_setup(seed, camera):
    """A feature anchored at one keyframe, observed by another."""
    rng = np.random.default_rng(seed)
    anchor = NavState(pose=SE3(random_rotation(rng) @ np.eye(3), rng.normal(size=3)))
    bearing = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2), 1.0])
    inv_depth = rng.uniform(0.1, 0.5)
    point_w = anchor.pose.transform(bearing / inv_depth)
    # Target: anchor pose shifted slightly so the point stays in view.
    target = NavState(
        pose=SE3(anchor.rotation, anchor.position + rng.normal(scale=0.2, size=3))
    )
    pixel = camera.project(target.pose, point_w) + rng.normal(scale=1.0, size=2)
    factor = VisualFactor(0, 0, 1, bearing, pixel)
    return factor, anchor, target, inv_depth


class TestVisualFactor:
    def test_rejects_self_observation(self):
        with pytest.raises(ValueError):
            VisualFactor(0, 1, 1, np.array([0, 0, 1.0]), np.zeros(2))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jacobians_match_numeric(self, camera, seed):
        factor, anchor, target, inv_depth = make_visual_setup(seed, camera)
        lin = factor.linearize(camera, anchor, target, inv_depth)
        assert lin is not None
        eps = 1e-6

        num_lambda = (
            factor.residual_only(camera, anchor, target, inv_depth + eps)
            - factor.residual_only(camera, anchor, target, inv_depth - eps)
        ) / (2 * eps)
        assert np.allclose(lin.jac_inv_depth.ravel(), num_lambda, atol=1e-4)

        for k in range(6):
            d = np.zeros(6)
            d[k] = eps
            plus = factor.residual_only(
                camera, NavState(pose=anchor.pose.retract(d)), target, inv_depth
            )
            minus = factor.residual_only(
                camera, NavState(pose=anchor.pose.retract(-d)), target, inv_depth
            )
            assert np.allclose(lin.jac_pose_anchor[:, k], (plus - minus) / (2 * eps), atol=1e-4)

            plus = factor.residual_only(
                camera, anchor, NavState(pose=target.pose.retract(d)), inv_depth
            )
            minus = factor.residual_only(
                camera, anchor, NavState(pose=target.pose.retract(-d)), inv_depth
            )
            assert np.allclose(lin.jac_pose_target[:, k], (plus - minus) / (2 * eps), atol=1e-4)

    def test_point_behind_camera_returns_none(self, camera):
        factor, anchor, _, inv_depth = make_visual_setup(0, camera)
        # Target looking the other way: the landmark is behind it.
        behind = NavState(
            pose=SE3(
                anchor.rotation
                @ np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]),
                anchor.position,
            )
        )
        assert factor.residual_only(camera, anchor, behind, inv_depth) is None
        assert factor.linearize(camera, anchor, behind, inv_depth) is None

    def test_zero_residual_at_consistent_geometry(self, camera):
        rng = np.random.default_rng(5)
        anchor = NavState(pose=SE3(np.eye(3), np.zeros(3)))
        bearing = np.array([0.1, -0.05, 1.0])
        inv_depth = 0.25
        point_w = bearing / inv_depth
        target = NavState(pose=SE3(np.eye(3), np.array([0.3, 0.0, 0.0])))
        pixel = camera.project(target.pose, point_w)
        factor = VisualFactor(0, 0, 1, bearing, pixel)
        residual = factor.residual_only(camera, anchor, target, inv_depth)
        assert np.allclose(residual, 0.0, atol=1e-10)


def make_imu_setup(seed):
    rng = np.random.default_rng(seed)
    pre = ImuPreintegration()
    for _ in range(40):
        pre.integrate(
            rng.normal(scale=0.3, size=3),
            rng.normal(scale=1.0, size=3) + np.array([0.0, 0.0, 9.8]),
            0.005,
            1e-3,
            1e-2,
        )
    state_i = NavState(
        pose=SE3(random_rotation(rng), rng.normal(size=3)),
        velocity=rng.normal(size=3),
        bias_gyro=rng.normal(scale=0.01, size=3),
        bias_accel=rng.normal(scale=0.05, size=3),
    )
    state_j = NavState(
        pose=SE3(random_rotation(rng), rng.normal(size=3)),
        velocity=rng.normal(size=3),
        bias_gyro=state_i.bias_gyro + rng.normal(scale=0.001, size=3),
        bias_accel=state_i.bias_accel + rng.normal(scale=0.01, size=3),
    )
    return ImuFactor(0, 1, pre), state_i, state_j


class TestImuFactor:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jacobians_match_numeric(self, seed):
        factor, state_i, state_j = make_imu_setup(seed)
        lin = factor.linearize(state_i, state_j)
        eps = 1e-6
        for k in range(15):
            d = np.zeros(15)
            d[k] = eps
            num_i = (
                factor.linearize(state_i.retract(d), state_j).residual
                - factor.linearize(state_i.retract(-d), state_j).residual
            ) / (2 * eps)
            num_j = (
                factor.linearize(state_i, state_j.retract(d)).residual
                - factor.linearize(state_i, state_j.retract(-d)).residual
            ) / (2 * eps)
            assert np.allclose(lin.jac_i[:, k], num_i, atol=5e-4)
            assert np.allclose(lin.jac_j[:, k], num_j, atol=5e-4)

    def test_zero_residual_for_consistent_states(self):
        """Propagating state i through the deltas must zero the residual."""
        from repro.imu.preintegration import GRAVITY

        factor, state_i, _ = make_imu_setup(3)
        pre = factor.preintegration
        dt = pre.dt_total
        alpha, beta, gamma = pre.corrected_deltas(state_i.bias_gyro, state_i.bias_accel)
        rot_i = state_i.rotation
        state_j = NavState(
            pose=SE3(
                rot_i @ gamma,
                state_i.position
                + state_i.velocity * dt
                + 0.5 * GRAVITY * dt * dt
                + rot_i @ alpha,
            ),
            velocity=state_i.velocity + GRAVITY * dt + rot_i @ beta,
            bias_gyro=state_i.bias_gyro,
            bias_accel=state_i.bias_accel,
        )
        lin = factor.linearize(state_i, state_j)
        assert np.allclose(lin.residual, 0.0, atol=1e-8)

    def test_information_is_positive_definite(self):
        factor, state_i, state_j = make_imu_setup(4)
        lin = factor.linearize(state_i, state_j)
        eigvals = np.linalg.eigvalsh(lin.information)
        assert eigvals.min() > 0.0

    def test_information_is_built_once_and_read_only(self):
        factor, state_i, state_j = make_imu_setup(5)
        information = factor.information()
        assert factor.linearize(state_i, state_j).information is information
        with pytest.raises(ValueError):
            information[0, 0] = 0.0


class TestPriorFactor:
    def test_contribution_at_linearization_point(self):
        state = NavState()
        prior = make_pose_anchor_prior(0, state)
        h, g = prior.contribution({0: state})
        assert np.allclose(g, 0.0)  # rp = 0 and offset = 0
        assert np.all(np.diag(h) > 0.0)

    def test_cost_grows_with_offset(self):
        state = NavState()
        prior = make_pose_anchor_prior(0, state)
        moved = state.retract(0.1 * np.ones(15))
        assert prior.cost({0: moved}) > prior.cost({0: state})

    def test_contribution_shifts_with_state(self):
        state = NavState()
        prior = make_pose_anchor_prior(0, state)
        delta = 0.05 * np.ones(15)
        moved = state.retract(delta)
        h, g = prior.contribution({0: moved})
        assert np.allclose(g, -h @ delta, atol=1e-10)

    def test_frame_state_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            PriorFactor([0, 1], np.eye(30), np.zeros(30), [NavState()])
