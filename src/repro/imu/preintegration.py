"""IMU preintegration between consecutive keyframes.

Implements the standard on-manifold preintegration of Forster et al. /
VINS-Mono: raw gyro/accel samples between keyframe ``i`` and keyframe
``j`` are folded into delta position ``alpha``, delta velocity ``beta``
and delta rotation ``gamma`` expressed in frame ``i``, together with
first-order Jacobians of the deltas with respect to the gyro/accel biases
so the NLS solver can correct for bias updates without re-integrating.

The 15-dimensional residual against two keyframe states (and its analytic
Jacobians) lives in :mod:`repro.slam.residuals`; this module only owns the
integration itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DataError
from repro.geometry.so3 import hat, so3_exp

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass
class ImuPreintegration:
    """Accumulated IMU deltas between two keyframes.

    All quantities are expressed in the body frame of the first keyframe.

    Attributes:
        alpha: preintegrated position delta (3,).
        beta: preintegrated velocity delta (3,).
        gamma: preintegrated rotation delta, a 3x3 rotation matrix.
        dt_total: total integration time [s].
        jac_alpha_bg / jac_alpha_ba: d(alpha)/d(gyro bias), d(alpha)/d(accel bias).
        jac_beta_bg / jac_beta_ba: analogous for beta.
        jac_gamma_bg: d(Log gamma)/d(gyro bias).
        covariance: 9x9 covariance of (alpha, theta, beta) accumulated
            from the per-sample noise densities.
        bias_gyro_ref / bias_accel_ref: bias values the integration was
            carried out with (the linearization point for corrections).
    """

    bias_gyro_ref: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bias_accel_ref: np.ndarray = field(default_factory=lambda: np.zeros(3))
    alpha: np.ndarray = field(default_factory=lambda: np.zeros(3))
    beta: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gamma: np.ndarray = field(default_factory=lambda: np.eye(3))
    dt_total: float = 0.0
    jac_alpha_bg: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    jac_alpha_ba: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    jac_beta_bg: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    jac_beta_ba: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    jac_gamma_bg: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    covariance: np.ndarray = field(default_factory=lambda: np.zeros((9, 9)))
    num_samples: int = 0

    def integrate(
        self,
        gyro: np.ndarray,
        accel: np.ndarray,
        dt: float,
        gyro_sigma: float = 0.0,
        accel_sigma: float = 0.0,
    ) -> None:
        """Fold one (gyro, accel) sample of duration ``dt`` into the deltas.

        Args:
            gyro: measured angular velocity (3,) [rad/s].
            accel: measured specific force (3,) [m/s^2], gravity included.
            dt: sample interval [s]; must be positive.
            gyro_sigma / accel_sigma: discrete per-sample noise stds used
                for covariance propagation (0 disables propagation).
        """
        self.integrate_segment(
            np.reshape(gyro, (1, 3)),
            np.reshape(accel, (1, 3)),
            dt,
            gyro_sigma,
            accel_sigma,
        )

    def integrate_segment(
        self,
        gyro: np.ndarray,
        accel: np.ndarray,
        dt: float,
        gyro_sigma: float = 0.0,
        accel_sigma: float = 0.0,
    ) -> None:
        """Fold ``n`` samples of one uniform-rate segment, in order.

        ``gyro`` and ``accel`` are ``(n, 3)``; the other arguments are
        :meth:`integrate`'s. The result equals ``n`` calls of
        :meth:`integrate` bit for bit: the arithmetic per sample is the
        same, and only what is constant across the segment — the
        ``dt * I`` blocks, the transition's identity seed and the noise
        covariance — is built once. The transition and noise-map buffers
        are reused, since every block of them that varies is rewritten
        at each sample.
        """
        if dt <= 0.0:
            raise DataError(f"IMU sample interval must be positive, got {dt}")
        dt_eye = dt * np.eye(3)
        propagate = gyro_sigma > 0.0 or accel_sigma > 0.0
        if propagate:
            transition = np.eye(9)
            transition[0:3, 6:9] = dt_eye
            noise_map = np.zeros((9, 6))
            noise_map[3:6, 0:3] = dt_eye
            noise_cov = np.diag([gyro_sigma**2] * 3 + [accel_sigma**2] * 3)

        for gyro_sample, accel_sample in zip(gyro, accel):
            gyro_sample = np.asarray(gyro_sample, dtype=float) - self.bias_gyro_ref
            accel_sample = np.asarray(accel_sample, dtype=float) - self.bias_accel_ref

            gamma_old = self.gamma
            rotated_accel = gamma_old @ accel_sample
            delta_rot = so3_exp(gyro_sample * dt)

            # First-order state propagation (Euler step on the deltas).
            self.alpha = self.alpha + self.beta * dt + 0.5 * rotated_accel * dt * dt
            self.beta = self.beta + rotated_accel * dt
            self.gamma = gamma_old @ delta_rot
            self.dt_total += dt
            self.num_samples += 1

            # Bias Jacobian propagation (first order, same discretization).
            accel_skew = hat(accel_sample)
            self.jac_alpha_bg = (
                self.jac_alpha_bg
                + self.jac_beta_bg * dt
                - 0.5 * dt * dt * gamma_old @ accel_skew @ self.jac_gamma_bg
            )
            self.jac_alpha_ba = (
                self.jac_alpha_ba + self.jac_beta_ba * dt - 0.5 * dt * dt * gamma_old
            )
            self.jac_beta_bg = (
                self.jac_beta_bg - dt * gamma_old @ accel_skew @ self.jac_gamma_bg
            )
            self.jac_beta_ba = self.jac_beta_ba - dt * gamma_old
            self.jac_gamma_bg = delta_rot.T @ self.jac_gamma_bg - dt_eye

            if propagate:
                self._propagate_covariance(
                    gamma_old, accel_skew, delta_rot, dt, transition, noise_map, noise_cov
                )

    def _propagate_covariance(
        self,
        gamma_old: np.ndarray,
        accel_skew: np.ndarray,
        delta_rot: np.ndarray,
        dt: float,
        transition: np.ndarray,
        noise_map: np.ndarray,
        noise_cov: np.ndarray,
    ) -> None:
        """Propagate the 9x9 (alpha, theta, beta) covariance one step.

        ``transition`` and ``noise_map`` arrive holding their constant
        blocks (:meth:`integrate_segment`); this writes the rest.
        """
        transition[0:3, 3:6] = -0.5 * dt * dt * gamma_old @ accel_skew
        transition[3:6, 3:6] = delta_rot.T
        transition[6:9, 3:6] = -dt * gamma_old @ accel_skew

        noise_map[0:3, 3:6] = 0.5 * dt * dt * gamma_old
        noise_map[6:9, 3:6] = dt * gamma_old

        self.covariance = (
            transition @ self.covariance @ transition.T
            + noise_map @ noise_cov @ noise_map.T
        )

    def corrected_deltas(
        self, bias_gyro: np.ndarray, bias_accel: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (alpha, beta, gamma) corrected for updated bias estimates.

        Applies the first-order bias Jacobians so the solver can move the
        bias away from the integration reference without re-running the
        integration.
        """
        d_bg = np.asarray(bias_gyro, dtype=float).reshape(3) - self.bias_gyro_ref
        d_ba = np.asarray(bias_accel, dtype=float).reshape(3) - self.bias_accel_ref
        alpha = self.alpha + self.jac_alpha_bg @ d_bg + self.jac_alpha_ba @ d_ba
        beta = self.beta + self.jac_beta_bg @ d_bg + self.jac_beta_ba @ d_ba
        gamma = self.gamma @ so3_exp(self.jac_gamma_bg @ d_bg)
        return alpha, beta, gamma

    def information_matrix(self, regularization: float = 1e-8) -> np.ndarray:
        """Inverse of the propagated covariance, regularized for stability."""
        if self.covariance.any():
            cov = self.covariance + regularization * np.eye(9)
            return np.linalg.inv(cov)
        return np.eye(9) / max(regularization, 1e-12)
