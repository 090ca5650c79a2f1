"""Residual factors of the MAP objective (Equ. 2) with analytic Jacobians.

Three factor types:

* :class:`VisualFactor` — reprojection error of one <feature,
  observation> pair under the inverse-depth parameterization. Its
  linearization is what the Visual Jacobian (VJac) hardware unit
  computes (Sec. 4.2).
* :class:`ImuFactor` — the 15-dim preintegrated IMU residual between
  consecutive keyframes (the IJac node).
* :class:`PriorFactor` — the quadratic prior ``|rp - Hp p|^2`` carried
  over from marginalization (Sec. 3.1).

All pose Jacobians use the tangent convention of
:meth:`repro.geometry.navstate.NavState.retract`:
(dp, dtheta, dv, dbg, dba), with dp additive in the world frame and
dtheta right-multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.camera import PinholeCamera
from repro.geometry.navstate import NavState
from repro.geometry.so3 import hat, so3_log, right_jacobian, right_jacobian_inverse
from repro.imu.preintegration import GRAVITY, ImuPreintegration


@dataclass
class VisualLinearization:
    """Output of one VJac evaluation."""

    residual: np.ndarray  # (2,)
    jac_inv_depth: np.ndarray  # (2, 1)
    jac_pose_anchor: np.ndarray  # (2, 6)
    jac_pose_target: np.ndarray  # (2, 6)
    weight: float  # scalar information (1 / sigma^2) per pixel axis


@dataclass
class VisualFactor:
    """Reprojection factor: feature anchored at ``anchor`` seen in ``target``.

    Attributes:
        feature_id: landmark identity (indexes the inverse-depth vector).
        anchor: keyframe id where the feature is anchored (first view).
        target: keyframe id of this observation; must differ from anchor
            (the anchor's own observation defines the bearing and has
            zero residual by construction).
        bearing: un-normalized anchor-frame ray [(u-cx)/fx, (v-cy)/fy, 1].
        pixel: the observed pixel in the target frame (2,).
        weight: measurement information, 1 / pixel_sigma^2.
    """

    feature_id: int
    anchor: int
    target: int
    bearing: np.ndarray
    pixel: np.ndarray
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.anchor == self.target:
            raise ValueError("visual factor must link two distinct keyframes")
        self.bearing = np.asarray(self.bearing, dtype=float).reshape(3)
        self.pixel = np.asarray(self.pixel, dtype=float).reshape(2)

    def point_world(self, state_anchor: NavState, inv_depth: float) -> np.ndarray:
        """Landmark world position implied by the current estimates."""
        point_anchor = self.bearing / inv_depth
        return state_anchor.pose.transform(point_anchor)

    def residual_only(
        self,
        camera: PinholeCamera,
        state_anchor: NavState,
        state_target: NavState,
        inv_depth: float,
    ) -> np.ndarray | None:
        """The 2-dim reprojection residual, or None if the point is behind."""
        point_w = self.point_world(state_anchor, inv_depth)
        point_t = state_target.pose.transform_to_body(point_w)
        if point_t[2] < camera.min_depth:
            return None
        predicted = camera.project_camera_point(point_t)
        return predicted - self.pixel

    def linearize(
        self,
        camera: PinholeCamera,
        state_anchor: NavState,
        state_target: NavState,
        inv_depth: float,
    ) -> VisualLinearization | None:
        """Evaluate residual and Jacobians; None if the point left the FoV."""
        point_anchor = self.bearing / inv_depth
        point_w = state_anchor.pose.transform(point_anchor)
        try:
            point_t, d_uv_d_pose_t, d_uv_d_pw = camera.projection_jacobians(
                state_target.pose, point_w
            )
        except ValueError:
            return None
        predicted = camera.project_camera_point(point_t)
        residual = predicted - self.pixel

        rot_anchor = state_anchor.pose.rotation
        # d p_w / d pose_anchor = [I | -R_h hat(p_h)] (right-mult update).
        d_pw_d_pose_h = np.hstack([np.eye(3), -rot_anchor @ hat(point_anchor)])
        jac_pose_anchor = d_uv_d_pw @ d_pw_d_pose_h
        # d p_h / d lambda = -bearing / lambda^2.
        d_pw_d_lambda = rot_anchor @ (-self.bearing / (inv_depth * inv_depth))
        jac_inv_depth = (d_uv_d_pw @ d_pw_d_lambda).reshape(2, 1)

        return VisualLinearization(
            residual=residual,
            jac_inv_depth=jac_inv_depth,
            jac_pose_anchor=jac_pose_anchor,
            jac_pose_target=d_uv_d_pose_t,
            weight=self.weight,
        )


@dataclass
class ImuLinearization:
    """Output of one IJac evaluation: 15-dim residual and two 15x15 blocks."""

    residual: np.ndarray  # (15,)
    jac_i: np.ndarray  # (15, 15)
    jac_j: np.ndarray  # (15, 15)
    information: np.ndarray  # (15, 15)


@dataclass
class ImuFactor:
    """Preintegrated IMU factor between keyframes ``frame_i`` -> ``frame_j``.

    Residual ordering: (r_alpha, r_theta, r_beta, r_bg, r_ba); the first
    nine components are weighted by the inverse of the propagated
    preintegration covariance, the bias components by the random-walk
    information over the integration interval.
    """

    frame_i: int
    frame_j: int
    preintegration: ImuPreintegration
    bias_walk_info: np.ndarray = field(
        default_factory=lambda: np.concatenate([np.full(3, 1e6), np.full(3, 1e4)])
    )

    def _residual_terms(
        self, state_i: NavState, state_j: NavState
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Residual plus the intermediates the Jacobians reuse.

        Returns ``(residual, rot_i_t, p_term, v_term, r_theta)``.
        """
        pre = self.preintegration
        dt = pre.dt_total
        alpha, beta, gamma = pre.corrected_deltas(state_i.bias_gyro, state_i.bias_accel)

        rot_i_t = state_i.rotation.T
        p_term = (
            state_j.position
            - state_i.position
            - state_i.velocity * dt
            - 0.5 * GRAVITY * dt * dt
        )
        v_term = state_j.velocity - state_i.velocity - GRAVITY * dt

        r_alpha = rot_i_t @ p_term - alpha
        r_theta = so3_log(gamma.T @ rot_i_t @ state_j.rotation)
        r_beta = rot_i_t @ v_term - beta
        r_bg = state_j.bias_gyro - state_i.bias_gyro
        r_ba = state_j.bias_accel - state_i.bias_accel
        residual = np.concatenate([r_alpha, r_theta, r_beta, r_bg, r_ba])
        return residual, rot_i_t, p_term, v_term, r_theta

    def residual_only(self, state_i: NavState, state_j: NavState) -> np.ndarray:
        """The 15-dim residual without the two 15x15 Jacobians.

        Cost evaluation only needs the residual and the information
        matrix; skipping the Jacobian assembly roughly halves the
        per-factor work of :meth:`WindowProblem.cost`.
        """
        return self._residual_terms(state_i, state_j)[0]

    def information(self) -> np.ndarray:
        """The 15x15 residual information (preintegration + bias walk).

        Built on the first call and shared after it: the preintegration
        covariance is final once the factor exists. The array is
        read-only, so a caller that writes to it raises.
        """
        information = self.__dict__.get("_information")
        if information is None:
            pre = self.preintegration
            information = np.zeros((15, 15))
            information[0:9, 0:9] = pre.information_matrix()
            information[9:15, 9:15] = np.diag(
                self.bias_walk_info / max(pre.dt_total, 1e-6)
            )
            information.flags.writeable = False
            self.__dict__["_information"] = information
        return information

    def linearize(self, state_i: NavState, state_j: NavState) -> ImuLinearization:
        pre = self.preintegration
        dt = pre.dt_total
        residual, rot_i_t, p_term, v_term, r_theta = self._residual_terms(
            state_i, state_j
        )

        jr_inv = right_jacobian_inverse(r_theta)

        jac_i = np.zeros((15, 15))
        jac_j = np.zeros((15, 15))
        # r_alpha rows (0:3).
        jac_i[0:3, 0:3] = -rot_i_t
        jac_i[0:3, 3:6] = hat(rot_i_t @ p_term)
        jac_i[0:3, 6:9] = -rot_i_t * dt
        jac_i[0:3, 9:12] = -pre.jac_alpha_bg
        jac_i[0:3, 12:15] = -pre.jac_alpha_ba
        jac_j[0:3, 0:3] = rot_i_t
        # r_theta rows (3:6).
        jac_i[3:6, 3:6] = -jr_inv @ state_j.rotation.T @ state_i.rotation
        # d r_theta / d bg_i: gamma(bg) = gamma_hat Exp(J_gamma_bg dbg), so
        # a bias perturbation left-multiplies Exp(r_theta) by
        # Exp(-Jr(J dbg) J eps); pulling it through the log gives
        # -Jl^-1(r) Jr(J dbg) J with Jl^-1(r) = Jr^-1(-r).
        d_bg = state_i.bias_gyro - pre.bias_gyro_ref
        jac_i[3:6, 9:12] = (
            -right_jacobian_inverse(-r_theta)
            @ right_jacobian(pre.jac_gamma_bg @ d_bg)
            @ pre.jac_gamma_bg
        )
        jac_j[3:6, 3:6] = jr_inv
        # r_beta rows (6:9).
        jac_i[6:9, 3:6] = hat(rot_i_t @ v_term)
        jac_i[6:9, 6:9] = -rot_i_t
        jac_i[6:9, 9:12] = -pre.jac_beta_bg
        jac_i[6:9, 12:15] = -pre.jac_beta_ba
        jac_j[6:9, 6:9] = rot_i_t
        # Bias rows (9:15).
        jac_i[9:12, 9:12] = -np.eye(3)
        jac_j[9:12, 9:12] = np.eye(3)
        jac_i[12:15, 12:15] = -np.eye(3)
        jac_j[12:15, 12:15] = np.eye(3)

        return ImuLinearization(residual, jac_i, jac_j, self.information())


@dataclass
class PriorFactor:
    """Marginalization prior over the states of specific keyframes.

    Stores the prior information matrix ``Hp`` and vector ``rp``
    (Sec. 3.1) together with the linearization states. The factor's
    contribution at the current estimate ``x`` with tangent offset
    ``d = x (-) x_lin`` is ``H += Hp`` and ``g += rp - Hp d``, where
    ``g`` is the negative gradient of the MAP objective.
    """

    frame_ids: list[int]
    hp: np.ndarray  # (15 * len(frame_ids), 15 * len(frame_ids))
    rp: np.ndarray  # (15 * len(frame_ids),)
    lin_states: list[NavState]

    def __post_init__(self) -> None:
        dim = 15 * len(self.frame_ids)
        self.hp = np.asarray(self.hp, dtype=float).reshape(dim, dim)
        self.rp = np.asarray(self.rp, dtype=float).reshape(dim)
        if len(self.lin_states) != len(self.frame_ids):
            raise ValueError("one linearization state required per frame id")

    def tangent_offset(self, states: dict[int, NavState]) -> np.ndarray:
        """Stacked tangent from linearization states to current states."""
        parts = [
            lin.local(states[fid]) for fid, lin in zip(self.frame_ids, self.lin_states)
        ]
        return np.concatenate(parts) if parts else np.zeros(0)

    def contribution(self, states: dict[int, NavState]) -> tuple[np.ndarray, np.ndarray]:
        """Return (H, g) contributions at the given current states."""
        offset = self.tangent_offset(states)
        return self.hp, self.rp - self.hp @ offset

    def cost(self, states: dict[int, NavState]) -> float:
        """Quadratic-model cost (up to the constant dropped at marginalization)."""
        offset = self.tangent_offset(states)
        return float(0.5 * offset @ self.hp @ offset - self.rp @ offset)


def make_pose_anchor_prior(frame_id: int, state: NavState, sigma_scale: float = 1.0) -> PriorFactor:
    """A gauge-fixing prior that pins one keyframe's full state.

    Used on the very first window, where the MAP problem would otherwise
    have unconstrained global position and yaw.
    """
    weights = np.concatenate(
        [
            np.full(3, 1e4),  # position [1 cm]
            np.full(3, 1e4),  # orientation [10 mrad]
            np.full(3, 1e4),  # velocity [0.01 m/s]
            np.full(3, 1e6),  # gyro bias [1 mrad/s]
            np.full(3, 1e3),  # accel bias [0.03 m/s^2]
        ]
    ) / (sigma_scale * sigma_scale)
    return PriorFactor(
        frame_ids=[frame_id],
        hp=np.diag(weights),
        rp=np.zeros(15),
        lin_states=[state],
    )
