"""Unit tests for trajectory generators and the landmark field."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.landmarks import density_profile, make_landmarks
from repro.data.trajectory import CarTrajectory, DroneTrajectory, _euler_rotation
from repro.errors import ConfigurationError
from repro.geometry.so3 import so3_exp, so3_log, so3_log_batch

# Query times: t = 0, the car's quadrature grid points (multiples of
# 0.01 s), arbitrary floats including negative ones, in any order.
_TIMES = st.lists(
    st.one_of(
        st.just(0.0),
        st.integers(min_value=0, max_value=6000).map(lambda k: k * 0.01),
        st.floats(min_value=-1.0, max_value=60.0, allow_nan=False),
    ),
    min_size=1,
    max_size=24,
)

_TRAJECTORIES = {
    "drone": lambda: DroneTrajectory(speed_scale=1.3, phases=np.linspace(0.3, 2.4, 6)),
    "car": lambda: CarTrajectory(turn_scale=0.8, phases=np.array([0.1, 0.9, 1.7, 2.4])),
}


class TestArrayCalls:
    """An array of times gives the stacked float calls, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(_TRAJECTORIES))
    @pytest.mark.parametrize(
        "method",
        ["position", "rotation", "velocity", "acceleration", "angular_velocity_body"],
    )
    @given(times=_TIMES)
    @settings(max_examples=25, deadline=None)
    def test_trajectory_methods(self, kind, method, times):
        batched = getattr(_TRAJECTORIES[kind](), method)(np.array(times))
        # One instance answers the float calls in query order, so the car's
        # grid grows in a different pattern than for the array call.
        scalar = getattr(_TRAJECTORIES[kind](), method)
        stacked = np.stack([scalar(t) for t in times])
        assert batched.shape == stacked.shape
        assert batched.tobytes() == stacked.tobytes()

    @given(times=_TIMES)
    @settings(max_examples=25, deadline=None)
    def test_density_profile(self, times):
        profile = density_profile(period=25.0, floor=0.12)
        stacked = np.array([profile(t) for t in times])
        assert profile(np.array(times)).tobytes() == stacked.tobytes()


_AXES = st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)
# Angles in so3_log's small-angle branch, its near-pi branch, and between.
_ANGLES = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-14, max_value=1e-9),
    st.floats(min_value=0.0, max_value=np.pi),
    st.floats(min_value=1e-12, max_value=1e-7).map(lambda d: np.pi - d),
)


class TestSo3Batch:
    @given(st.lists(st.tuples(_AXES, _ANGLES), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_exp_and_log_match_scalar(self, pairs):
        omegas = np.array([np.array(axis) / np.linalg.norm(axis) * angle for axis, angle in pairs])
        rotations = np.stack([so3_exp(w) for w in omegas])
        logs = so3_log_batch(rotations)
        assert logs.tobytes() == np.stack([so3_log(r) for r in rotations]).tobytes()

    def test_log_branches(self):
        rotations = np.stack(
            [
                np.eye(3),  # small angle
                np.diag([1.0, -1.0, -1.0]),  # exactly pi
                so3_exp(np.array([0.0, 0.6, -0.8]) * (np.pi - 1e-9)),  # near pi
                so3_exp(np.array([0.3, 0.2, 0.1])),  # generic
            ]
        )
        stacked = np.stack([so3_log(r) for r in rotations])
        assert so3_log_batch(rotations).tobytes() == stacked.tobytes()
        assert so3_log_batch(rotations.reshape(2, 2, 3, 3)).shape == (2, 2, 3)


# Per-axis angles: zero, so3_exp's small-angle branch, both sides of its
# 1e-8 threshold, generic angles, and angles past pi, where sin(theta) / theta
# turns negative.
_THRESHOLD = 1e-8
_EULER_ANGLES = st.one_of(
    st.sampled_from(
        [
            0.0,
            -0.0,
            1e-12,
            -1e-12,
            np.nextafter(_THRESHOLD, 0.0),
            -np.nextafter(_THRESHOLD, 0.0),
            _THRESHOLD,
            -_THRESHOLD,
            np.nextafter(_THRESHOLD, 1.0),
            -np.nextafter(_THRESHOLD, 1.0),
        ]
    ),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=np.pi, max_value=40.0).flatmap(lambda a: st.sampled_from([a, -a])),
)


def _axis_factors(yaw, pitch, roll):
    """``Rz``, ``Ry`` and ``Rx`` from scalar ``so3_exp`` calls."""
    return (
        so3_exp(np.array([0.0, 0.0, yaw])),
        so3_exp(np.array([0.0, pitch, 0.0])),
        so3_exp(np.array([roll, 0.0, 0.0])),
    )


class TestEulerRotation:
    """The per-axis terms give the bytes of the so3_exp factors' matmuls."""

    @given(st.lists(st.tuples(*[_EULER_ANGLES] * 3), min_size=1, max_size=12))
    @example([(0.0, 0.0, 0.0), (2.5, 0.0, -0.0), (-3.0, 1e-12, 4.0), (7.0, -2.0, 0.0)])
    @settings(max_examples=100, deadline=None)
    def test_matches_so3_exp_factors(self, triples):
        factors = [np.stack(f) for f in zip(*(_axis_factors(*angles) for angles in triples))]
        yaw, pitch, roll = np.array(triples).T
        expected = np.matmul(np.matmul(factors[0], factors[1]), factors[2])
        assert _euler_rotation(yaw, pitch, roll).tobytes() == expected.tobytes()
        for angles in triples:
            rz, ry, rx = _axis_factors(*angles)
            expected = np.matmul(np.matmul(rz, ry), rx)
            for scalar in (angles, np.array(angles)):
                assert _euler_rotation(*scalar).tobytes() == expected.tobytes()


class TestDroneTrajectory:
    @pytest.fixture
    def trajectory(self):
        return DroneTrajectory(phases=np.linspace(0.3, 2.4, 6))

    def test_rotation_is_valid(self, trajectory):
        for t in (0.0, 3.7, 12.2):
            rot = trajectory.rotation(t)
            assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-10)

    def test_velocity_is_position_derivative(self, trajectory):
        t, h = 5.0, 1e-5
        numeric = (trajectory.position(t + h) - trajectory.position(t - h)) / (2 * h)
        assert np.allclose(trajectory.velocity(t), numeric, atol=1e-4)

    def test_acceleration_is_velocity_derivative(self, trajectory):
        t, h = 5.0, 1e-4
        numeric = (trajectory.velocity(t + h) - trajectory.velocity(t - h)) / (2 * h)
        assert np.allclose(trajectory.acceleration(t), numeric, atol=1e-2)

    def test_stays_in_flight_volume(self, trajectory):
        positions = np.array([trajectory.position(t) for t in np.linspace(0, 60, 200)])
        assert np.all(np.abs(positions[:, 0]) <= trajectory.extent[0] + 1e-9)
        assert np.all(np.abs(positions[:, 1]) <= trajectory.extent[1] + 1e-9)

    def test_accelerations_mav_grade(self, trajectory):
        """EuRoC-MH-like dynamics: peak accelerations of a few m/s^2,
        enough to make the accelerometer bias observable."""
        accels = [
            np.linalg.norm(trajectory.acceleration(t))
            for t in np.linspace(0, 30, 300)
        ]
        assert 1.0 < max(accels) < 20.0

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            DroneTrajectory(extent=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            DroneTrajectory(speed_scale=0.0)


class TestCarTrajectory:
    @pytest.fixture
    def trajectory(self):
        return CarTrajectory(phases=np.array([0.1, 0.9, 1.7, 2.4]))

    def test_speed_near_nominal(self, trajectory):
        for t in (1.0, 20.0, 60.0):
            speed = np.linalg.norm(trajectory.velocity(t)[:2])
            assert speed == pytest.approx(trajectory.speed, rel=0.01)

    def test_position_consistent_with_velocity(self, trajectory):
        """The quadrature path must integrate the analytic velocity."""
        t0, t1 = 10.0, 10.5
        steps = np.linspace(t0, t1, 501)
        integral = np.trapezoid(
            np.array([trajectory.velocity(t) for t in steps]), steps, axis=0
        )
        delta = trajectory.position(t1) - trajectory.position(t0)
        assert np.allclose(delta, integral, atol=2e-3)

    def test_heading_follows_velocity(self, trajectory):
        t = 15.0
        velocity = trajectory.velocity(t)
        heading = np.arctan2(velocity[1], velocity[0])
        forward = trajectory.rotation(t) @ np.array([1.0, 0.0, 0.0])
        assert np.arctan2(forward[1], forward[0]) == pytest.approx(heading, abs=0.05)

    def test_invalid_speed(self):
        with pytest.raises(ConfigurationError):
            CarTrajectory(speed=0.0)


class TestLandmarks:
    def test_density_profile_bounds(self):
        profile = density_profile(period=30.0, floor=0.2)
        values = [profile(t) for t in np.linspace(0, 200, 500)]
        assert min(values) >= 0.2
        assert max(values) <= 1.0
        assert max(values) - min(values) > 0.3  # actual variation

    def test_density_floor_validation(self):
        with pytest.raises(ConfigurationError):
            density_profile(floor=0.0)

    def test_landmarks_near_trajectory(self):
        rng = np.random.default_rng(0)
        trajectory = DroneTrajectory(phases=np.zeros(6))
        points = make_landmarks(
            trajectory, duration=20.0, rng=rng, count=500, lateral_spread=3.0,
            vertical_spread=2.0, forward_spread=3.0,
        )
        assert 200 < len(points) <= 500  # density thins the field
        # Every landmark within a few spreads of some path point.
        path = np.array([trajectory.position(t) for t in np.linspace(0, 20, 100)])
        distances = np.min(
            np.linalg.norm(points[:, None, :] - path[None, :, :], axis=2), axis=1
        )
        assert np.percentile(distances, 95) < 15.0

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        trajectory = DroneTrajectory(phases=np.zeros(6))
        with pytest.raises(ConfigurationError):
            make_landmarks(trajectory, duration=0.0, rng=rng)
        with pytest.raises(ConfigurationError):
            make_landmarks(trajectory, duration=10.0, rng=rng, count=0)

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_deterministic_given_seed(self, seed):
        trajectory = CarTrajectory(phases=np.zeros(4))
        a = make_landmarks(trajectory, 10.0, np.random.default_rng(seed), count=50)
        b = make_landmarks(trajectory, 10.0, np.random.default_rng(seed), count=50)
        assert np.array_equal(a, b)
