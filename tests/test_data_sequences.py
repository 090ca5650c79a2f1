"""Tests for synthetic sequence generation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.data import (
    EUROC_SEQUENCES,
    KITTI_SEQUENCES,
    SequenceConfig,
    make_euroc_sequence,
    make_kitti_sequence,
    make_sequence,
)
from repro.data.io import sequence_to_arrays
from repro.data.landmarks import density_profile
from repro.data.sequences import ImuSegment, Sequence, _make_trajectory
from repro.data.tracks import FeatureTracker
from repro.geometry.navstate import NavState
from repro.geometry.se3 import SE3
from repro.imu.noise import ImuNoise
from repro.imu.preintegration import GRAVITY
from repro.scenarios.builders import scenario_sequence_config
from repro.utils.rng import rng_from_seed, split_seed


class TestSequenceConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            SequenceConfig(kind="boat")

    def test_rejects_low_imu_rate(self):
        with pytest.raises(ConfigurationError):
            SequenceConfig(imu_rate=5.0, keyframe_rate=5.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("landmark_count", 0),
            ("density_period", 0.0),
            ("density_period", -5.0),
            ("density_floor", 0.0),
            ("density_floor", 1.5),
            ("motion_scale", 0.0),
        ],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SequenceConfig(kind="drone", **{field: value})

    def test_catalogs_complete(self):
        assert sorted(EUROC_SEQUENCES) == [f"MH_0{i}" for i in range(1, 6)]
        assert sorted(KITTI_SEQUENCES) == [f"{i:02d}" for i in range(11)]


class TestSequenceGeneration:
    @pytest.fixture(scope="class")
    def euroc(self):
        return make_euroc_sequence("MH_01", duration=5.0)

    def test_keyframe_count(self, euroc):
        assert euroc.num_keyframes == 26  # 5 s at 5 Hz inclusive

    def test_deterministic(self):
        a = make_euroc_sequence("MH_02", duration=2.0)
        b = make_euroc_sequence("MH_02", duration=2.0)
        assert np.array_equal(a.landmarks, b.landmarks)
        assert np.array_equal(a.imu_segments[0].gyro, b.imu_segments[0].gyro)
        assert a.observations[3].pixels.keys() == b.observations[3].pixels.keys()

    def test_distinct_sequences_differ(self):
        a = make_euroc_sequence("MH_01", duration=2.0)
        b = make_euroc_sequence("MH_03", duration=2.0)
        assert not np.array_equal(a.landmarks[: len(b.landmarks)], b.landmarks[: len(a.landmarks)])

    def test_imu_segment_shapes(self, euroc):
        assert len(euroc.imu_segments) == euroc.num_keyframes - 1
        segment = euroc.imu_segments[0]
        assert segment.gyro.shape == segment.accel.shape
        assert segment.gyro.shape[0] == pytest.approx(
            euroc.config.imu_rate / euroc.config.keyframe_rate, abs=1
        )

    def test_feature_counts_vary(self, euroc):
        counts = euroc.feature_counts()
        assert counts.min() >= 0
        assert counts.max() <= euroc.config.tracker.max_features
        assert counts.std() > 1.0  # the density profile creates variation

    def test_observations_are_in_image(self, euroc):
        camera = euroc.config.camera
        for obs in euroc.observations[:10]:
            for pixel in obs.pixels.values():
                # Noise can push a pixel slightly outside; allow margin.
                assert -10 <= pixel[0] <= camera.width + 10
                assert -10 <= pixel[1] <= camera.height + 10

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError):
            make_euroc_sequence("MH_99")
        with pytest.raises(ConfigurationError):
            make_kitti_sequence("42")

    def test_true_states_follow_trajectory(self, euroc):
        # Velocity should be the numerical derivative of positions.
        dt = 1.0 / euroc.config.keyframe_rate
        p0 = euroc.true_states[0].position
        p1 = euroc.true_states[1].position
        v_avg = (p1 - p0) / dt
        v_mid = 0.5 * (euroc.true_states[0].velocity + euroc.true_states[1].velocity)
        assert np.allclose(v_avg, v_mid, atol=0.2)

    def test_kitti_is_planar_ish(self):
        seq = make_kitti_sequence("01", duration=5.0)
        zs = np.array([s.position[2] for s in seq.true_states])
        assert zs.std() < 1.0  # near-planar driving

    def test_custom_config_roundtrip(self):
        config = SequenceConfig(name="tiny", kind="drone", seed=7, duration=2.0)
        seq = make_sequence(config)
        assert seq.config.name == "tiny"
        assert seq.num_keyframes == 11


def _reference_sequence(config: SequenceConfig) -> Sequence:
    """Per-sample synthesis from float trajectory calls: the loops that
    batched synthesis replaced, kept as the reference it must match."""

    def stream(label):
        return rng_from_seed(split_seed(config.seed, f"{config.name}:{label}"))

    land_rng, track_rng, imu_rng = stream("landmarks"), stream("tracks"), stream("imu")
    trajectory = _make_trajectory(config, stream("trajectory"))
    # forward, lateral, vertical
    spreads = (4.0, 4.0, 2.0) if config.kind == "drone" else (6.0, 14.0, 4.0)
    density = density_profile(config.density_period, config.density_floor)

    anchors = land_rng.uniform(0.0, config.duration, size=config.landmark_count)
    keep = land_rng.uniform(size=config.landmark_count) < np.array([density(t) for t in anchors])
    landmarks = np.empty((int(keep.sum()), 3))
    for i, t in enumerate(anchors[keep]):
        offset = np.array([land_rng.normal(scale=spread) for spread in spreads])
        landmarks[i] = trajectory.position(float(t)) + trajectory.rotation(float(t)) @ offset

    num_keyframes = int(np.floor(config.duration * config.keyframe_rate)) + 1
    timestamps = np.arange(num_keyframes) / config.keyframe_rate
    bias_gyro = imu_rng.normal(scale=2e-3, size=3)
    bias_accel = imu_rng.normal(scale=2e-2, size=3)
    states = [
        NavState(
            pose=SE3(trajectory.rotation(float(t)), trajectory.position(float(t))),
            velocity=trajectory.velocity(float(t)),
            bias_gyro=bias_gyro,
            bias_accel=bias_accel,
        )
        for t in timestamps
    ]
    tracker = FeatureTracker(config.camera, landmarks, config.tracker, track_rng)
    observations = [tracker.observe(i, state.pose) for i, state in enumerate(states)]

    dt = 1.0 / config.imu_rate
    noise = config.imu_noise
    gyro_sigma = noise.discrete_gyro_sigma(dt) if noise.gyro_noise > 0 else 0.0
    accel_sigma = noise.discrete_accel_sigma(dt) if noise.accel_noise > 0 else 0.0
    segments = []
    for t_start, t_end in zip(timestamps[:-1], timestamps[1:]):
        count = max(int(round((float(t_end) - float(t_start)) * config.imu_rate)), 1)
        times = float(t_start) + np.arange(count) * dt
        gyro, accel = np.empty((count, 3)), np.empty((count, 3))
        for i, t in enumerate(times):
            tm = float(t) + 0.5 * dt
            gyro[i] = trajectory.angular_velocity_body(tm) + bias_gyro
            accel[i] = (
                trajectory.rotation(tm).T @ (trajectory.acceleration(tm) - GRAVITY) + bias_accel
            )
            if gyro_sigma > 0.0:
                gyro[i] += imu_rng.normal(scale=gyro_sigma, size=3)
            if accel_sigma > 0.0:
                accel[i] += imu_rng.normal(scale=accel_sigma, size=3)
        segments.append(ImuSegment(timestamps=times, gyro=gyro, accel=accel, dt=dt))
    return Sequence(
        config, timestamps, states, observations, segments, landmarks, bias_gyro, bias_accel
    )


_REFERENCE_CONFIGS = {
    "drone": replace(EUROC_SEQUENCES["MH_04"], duration=3.0),
    "car": replace(KITTI_SEQUENCES["06"], duration=3.0, landmark_count=4000),
    "no-imu-noise": SequenceConfig(
        name="quiet", seed=3, duration=2.0, imu_noise=ImuNoise(gyro_noise=0.0, accel_noise=0.0)
    ),
    "accel-noise-only": SequenceConfig(
        name="gyro-clean", seed=4, duration=2.0, imu_noise=ImuNoise(gyro_noise=0.0)
    ),
    # Every candidate kept: more landmarks than several row blocks.
    "multi-block": SequenceConfig(
        name="dense", seed=5, duration=2.0, landmark_count=3500, density_floor=1.0
    ),
    "tunnel": scenario_sequence_config("tunnel", 1, duration=2.0),
    "loop_closure": scenario_sequence_config("loop_closure", 2, duration=2.0),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_CONFIGS))
def test_batched_synthesis_matches_per_sample_reference(name):
    config = _REFERENCE_CONFIGS[name]
    actual = sequence_to_arrays(make_sequence(config))
    expected = sequence_to_arrays(_reference_sequence(config))
    assert actual.keys() == expected.keys()
    for key, value in expected.items():
        assert actual[key].dtype == value.dtype, key
        assert actual[key].shape == value.shape, key
        assert actual[key].tobytes() == value.tobytes(), key
