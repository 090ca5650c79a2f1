"""Tests for IMU noise models and preintegration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.imu import GRAVITY, ImuNoise, ImuPreintegration
from repro.data.trajectory import DroneTrajectory


class TestImuNoise:
    def test_discrete_sigmas_scale_with_dt(self):
        noise = ImuNoise()
        # White noise sigma grows as rate increases (1/sqrt(dt)).
        assert noise.discrete_gyro_sigma(0.001) > noise.discrete_gyro_sigma(0.01)
        # Random walk sigma shrinks with rate (sqrt(dt)).
        assert noise.discrete_gyro_walk_sigma(0.001) < noise.discrete_gyro_walk_sigma(0.01)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ImuNoise(gyro_noise=-1.0)

    def test_ideal_is_noiseless(self):
        noise = ImuNoise.ideal()
        assert noise.gyro_noise == 0.0 and noise.accel_noise == 0.0


class TestPreintegration:
    def test_rejects_bad_dt(self):
        pre = ImuPreintegration()
        with pytest.raises(DataError):
            pre.integrate(np.zeros(3), np.zeros(3), 0.0)

    def test_stationary_integration(self):
        # A motionless IMU measures -g as specific force; the deltas must
        # reproduce free-fall kinematics: alpha = 0.5*(-g_body)*t^2 with
        # gravity later re-added by the residual. Here we just check the
        # accumulated deltas against the closed form.
        pre = ImuPreintegration()
        accel = -GRAVITY  # body frame aligned with world
        dt, steps = 0.005, 200
        for _ in range(steps):
            pre.integrate(np.zeros(3), accel, dt)
        t = dt * steps
        assert np.allclose(pre.gamma, np.eye(3), atol=1e-12)
        assert np.allclose(pre.beta, accel * t, atol=1e-6)
        assert np.allclose(pre.alpha, 0.5 * accel * t * t, atol=1e-3)
        assert pre.num_samples == steps

    def test_pure_rotation(self):
        pre = ImuPreintegration()
        omega = np.array([0.0, 0.0, np.pi / 2])  # 90 deg/s about z
        dt, steps = 0.001, 1000
        for _ in range(steps):
            pre.integrate(omega, np.zeros(3), dt)
        # After 1 s: 90-degree rotation about z.
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(pre.gamma, expected, atol=1e-3)

    def test_matches_trajectory_kinematics(self):
        """Preintegrated deltas must predict the true relative motion."""
        traj = DroneTrajectory(phases=np.array([0.3, 1.1, 0.7, 0.2, 0.9, 1.4]))
        t0, t1 = 2.0, 2.4
        dt = 1.0 / 400.0
        pre = ImuPreintegration()
        t = t0
        while t < t1 - 1e-9:
            tm = t + 0.5 * dt
            rot = traj.rotation(tm)
            gyro = traj.angular_velocity_body(tm)
            accel = rot.T @ (traj.acceleration(tm) - GRAVITY)
            pre.integrate(gyro, accel, dt)
            t += dt

        rot0 = traj.rotation(t0)
        p0, p1 = traj.position(t0), traj.position(t1)
        v0, v1 = traj.velocity(t0), traj.velocity(t1)
        dt_tot = pre.dt_total

        alpha_expected = rot0.T @ (p1 - p0 - v0 * dt_tot - 0.5 * GRAVITY * dt_tot**2)
        beta_expected = rot0.T @ (v1 - v0 - GRAVITY * dt_tot)
        gamma_expected = rot0.T @ traj.rotation(t1)

        assert np.allclose(pre.alpha, alpha_expected, atol=2e-3)
        assert np.allclose(pre.beta, beta_expected, atol=5e-3)
        assert np.allclose(pre.gamma, gamma_expected, atol=1e-3)

    def test_bias_correction_first_order(self):
        """corrected_deltas must approximate re-integration with new bias."""
        rng = np.random.default_rng(3)
        samples = [(rng.normal(scale=0.3, size=3), rng.normal(scale=2.0, size=3)) for _ in range(50)]
        dt = 0.005
        bias_ref = np.zeros(3)
        pre = ImuPreintegration(bias_gyro_ref=bias_ref, bias_accel_ref=bias_ref)
        for gyro, accel in samples:
            pre.integrate(gyro, accel, dt)

        d_bg = np.array([0.002, -0.001, 0.0015])
        d_ba = np.array([0.01, 0.02, -0.015])
        alpha_c, beta_c, gamma_c = pre.corrected_deltas(d_bg, d_ba)

        # Ground truth: re-integrate with the shifted bias reference.
        pre2 = ImuPreintegration(bias_gyro_ref=d_bg, bias_accel_ref=d_ba)
        for gyro, accel in samples:
            pre2.integrate(gyro, accel, dt)

        assert np.allclose(alpha_c, pre2.alpha, atol=1e-4)
        assert np.allclose(beta_c, pre2.beta, atol=1e-3)
        assert np.allclose(gamma_c, pre2.gamma, atol=1e-4)

    def test_covariance_grows(self):
        pre = ImuPreintegration()
        noise = ImuNoise()
        dt = 0.005
        traces = []
        for _ in range(100):
            pre.integrate(
                np.array([0.1, 0.0, 0.05]),
                np.array([0.0, 0.0, 9.81]),
                dt,
                gyro_sigma=noise.discrete_gyro_sigma(dt),
                accel_sigma=noise.discrete_accel_sigma(dt),
            )
            traces.append(np.trace(pre.covariance))
        assert all(b >= a for a, b in zip(traces, traces[1:]))
        assert traces[-1] > 0.0

    def test_information_matrix_inverts_covariance(self):
        pre = ImuPreintegration()
        dt = 0.005
        for _ in range(50):
            pre.integrate(
                np.array([0.2, -0.1, 0.3]),
                np.array([0.5, 0.2, 9.8]),
                dt,
                gyro_sigma=1e-3,
                accel_sigma=1e-2,
            )
        reg = 1e-8
        info = pre.information_matrix(regularization=reg)
        product = info @ (pre.covariance + reg * np.eye(9))
        assert np.allclose(product, np.eye(9), atol=1e-6)
