"""Tests for synthetic sequence generation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.data.tracks import (
    FeatureTracker,
    FrameObservations,
    TrackerConfig,
    project_landmarks,
)
from repro.geometry.camera import PinholeCamera
from repro.geometry.navstate import NavState
from repro.geometry.se3 import SE3
from repro.geometry.so3 import random_rotation, so3_exp
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
        assert a.observations[3].ids.tobytes() == b.observations[3].ids.tobytes()

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
            u, v = obs.pixels[:, 0], obs.pixels[:, 1]
            # Noise can push a pixel slightly outside; allow margin.
            assert np.all((-10 <= u) & (u <= camera.width + 10))
            assert np.all((-10 <= v) & (v <= camera.height + 10))

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


def _visible_landmark_indices(camera, pose, landmarks):
    """Indices of landmarks inside the image (the pre-batching helper)."""
    points_c = (landmarks - pose.translation) @ pose.rotation
    z = points_c[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = camera.fx * points_c[:, 0] / z + camera.cx
        v = camera.fy * points_c[:, 1] / z + camera.cy
    ok = (
        (z >= camera.min_depth)
        & (u >= 0.0)
        & (u < camera.width)
        & (v >= 0.0)
        & (v < camera.height)
    )
    return np.flatnonzero(ok)


class _ReferenceTracker(FeatureTracker):
    """Per-feature ``observe``: one projection, one drop draw and one noise
    draw per feature. The loops the batched tracker replaced, kept as the
    reference it must match."""

    def observe(self, frame_id, true_pose):
        visible = set(_visible_landmark_indices(self.camera, true_pose, self.landmarks).tolist())

        survivors = set()
        for fid in self._active & visible:
            if self._rng.uniform() >= self.config.drop_probability:
                survivors.add(fid)

        budget = self.config.max_features - len(survivors)
        if budget > 0:
            candidates = np.array(sorted(visible - survivors), dtype=int)
            if candidates.size > budget:
                candidates = self._rng.choice(candidates, size=budget, replace=False)
            survivors.update(int(c) for c in candidates)

        ids, pixels = [], []
        for fid in sorted(survivors):
            if (
                self.config.outlier_probability > 0.0
                and self._rng.uniform() < self.config.outlier_probability
            ):
                pixel = np.array(
                    [
                        self._rng.uniform(0.0, self.camera.width),
                        self._rng.uniform(0.0, self.camera.height),
                    ]
                )
            else:
                pixel = np.array(
                    self.camera.project(true_pose, self.landmarks[fid]), dtype=float
                )
                pixel += self._rng.normal(scale=self.config.pixel_sigma, size=2)
            ids.append(fid)
            pixels.append(pixel)
        self._active = survivors
        return FrameObservations(
            frame_id,
            np.array(ids, dtype=np.int64),
            np.array(pixels, dtype=float).reshape(len(ids), 2),
        )


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
    tracker = _ReferenceTracker(config.camera, landmarks, config.tracker, track_rng)
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
    "aggressive": scenario_sequence_config("aggressive", 0, duration=2.0),
    "highway": scenario_sequence_config("highway", 3, duration=2.0),
    # The tracker's data-dependent branch: an outlier draws two uniforms
    # where an inlier draws two normals.
    "outliers": SequenceConfig(
        name="gross", seed=6, duration=2.0, tracker=TrackerConfig(outlier_probability=0.1)
    ),
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


_TRACKER_CONFIGS = st.builds(
    TrackerConfig,
    max_features=st.integers(min_value=1, max_value=80),
    pixel_sigma=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
    drop_probability=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.9)),
    outlier_probability=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
)


@given(
    config=_TRACKER_CONFIGS,
    num_landmarks=st.integers(min_value=0, max_value=200),
    num_frames=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(config=TrackerConfig(drop_probability=0.0), num_landmarks=150, num_frames=4, seed=1)
@example(config=TrackerConfig(pixel_sigma=0.0), num_landmarks=150, num_frames=4, seed=2)
@example(config=TrackerConfig(outlier_probability=0.3), num_landmarks=150, num_frames=4, seed=3)
@example(config=TrackerConfig(max_features=5), num_landmarks=150, num_frames=4, seed=4)
@example(config=TrackerConfig(), num_landmarks=0, num_frames=3, seed=5)
@settings(max_examples=40, deadline=None)
def test_tracker_matches_per_feature_reference(config, num_landmarks, num_frames, seed):
    """Same pixel bytes, key order, track-set order and RNG state as the
    per-feature loops, frame after frame."""
    field = np.random.default_rng([seed, 0])
    landmarks = field.uniform((-6.0, -4.0, -1.0), (6.0, 4.0, 12.0), size=(num_landmarks, 3))
    poses = [
        SE3(so3_exp(field.normal(scale=0.1, size=3)), field.normal(scale=0.5, size=3))
        for _ in range(num_frames)
    ]
    camera = PinholeCamera()
    batched = FeatureTracker(camera, landmarks, config, np.random.default_rng([seed, 1]))
    reference = _ReferenceTracker(camera, landmarks, config, np.random.default_rng([seed, 1]))
    for frame_id, pose in enumerate(poses):
        actual, expected = batched.observe(frame_id, pose), reference.observe(frame_id, pose)
        assert actual.frame_id == expected.frame_id
        for name in ("ids", "pixels"):
            a, e = getattr(actual, name), getattr(expected, name)
            assert a.dtype == e.dtype, name
            assert a.shape == e.shape, name
            assert a.tobytes() == e.tobytes(), name
        assert list(batched._active) == list(reference._active)
    assert batched._rng.bit_generator.state == reference._rng.bit_generator.state


# ----------------------------------------------------------------------
# Frustum culling: a keyframe projects only the landmarks of grid cells
# that may meet the view, and must find what projecting the whole field
# finds.


def _assert_culling_exact(tracker, pose):
    """The unculled rows give the whole field's visible ids and pixel bytes."""
    unculled = tracker._unculled_ids(pose)
    assert np.all(np.diff(unculled) > 0)
    with np.errstate(invalid="ignore"):
        pixels, rows = project_landmarks(tracker.camera, pose, tracker.landmarks[unculled])
        field_pixels, visible = project_landmarks(tracker.camera, pose, tracker.landmarks)
    assert unculled[rows].tobytes() == visible.tobytes()
    assert pixels[rows].tobytes() == field_pixels[visible].tobytes()
    return unculled, visible


def _random_field(shape, count, rng):
    if shape == "box":
        extent = rng.uniform(0.01, 200.0, size=3)
        return rng.uniform(-extent, extent, size=(count, 3)) + rng.normal(scale=100.0, size=3)
    if shape == "clusters":
        centres = rng.uniform(-50.0, 50.0, size=(rng.integers(1, 6), 3))
        spread = rng.uniform(1e-3, 0.5)
        return centres[rng.integers(len(centres), size=count)] + rng.normal(
            scale=spread, size=(count, 3)
        )
    # A long sparse strip, like a few landmarks along a road.
    return np.stack(
        [
            rng.uniform(0.0, 2000.0, size=count),
            rng.normal(scale=3.0, size=count),
            rng.normal(scale=1.0, size=count),
        ],
        axis=1,
    )


def _random_pose(landmarks, rng):
    """A uniformly random rotation, or one looking at a landmark, near the field."""
    target = landmarks[rng.integers(len(landmarks))] if len(landmarks) else np.zeros(3)
    position = target + rng.normal(scale=rng.choice([0.2, 5.0, 60.0]), size=3)
    if rng.uniform() < 0.5:
        return SE3(random_rotation(rng), position)
    forward = target - position
    forward /= np.linalg.norm(forward)
    right = np.cross(rng.normal(size=3), forward)
    right /= np.linalg.norm(right)
    look = np.stack([right, np.cross(forward, right), forward], axis=1)
    return SE3(look @ so3_exp(rng.normal(scale=0.5, size=3)), position)


_CAMERAS = st.one_of(
    st.just(PinholeCamera()),
    st.builds(
        PinholeCamera,
        fx=st.floats(50.0, 2000.0),
        fy=st.floats(50.0, 2000.0),
        cx=st.floats(-100.0, 900.0),
        cy=st.floats(-100.0, 600.0),
        width=st.integers(1, 1280),
        height=st.integers(1, 960),
        min_depth=st.floats(1e-3, 5.0),
    ),
)


@given(
    camera=_CAMERAS,
    shape=st.sampled_from(["box", "clusters", "strip"]),
    count=st.integers(min_value=0, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(camera=PinholeCamera(), shape="box", count=0, seed=1)
@example(camera=PinholeCamera(), shape="box", count=1, seed=2)
@example(camera=PinholeCamera(), shape="clusters", count=1, seed=3)
@settings(max_examples=60, deadline=None)
def test_culled_tracker_matches_whole_field_projection(camera, shape, count, seed):
    rng = np.random.default_rng(seed)
    landmarks = _random_field(shape, count, rng)
    tracker = FeatureTracker(camera, landmarks, TrackerConfig(), np.random.default_rng(0))
    for _ in range(6):
        _assert_culling_exact(tracker, _random_pose(landmarks, rng))


def _camera_points(camera, pixels, depth):
    """Camera-frame points that project to ``pixels`` at ``depth``."""
    u, v = np.asarray(pixels, dtype=float).T
    x = (u - camera.cx) * depth / camera.fx
    y = (v - camera.cy) * depth / camera.fy
    return np.stack([x, y, np.full_like(u, depth)], axis=1)


def test_culling_keeps_landmarks_on_the_image_border():
    """Landmarks on the four border rays and at ``z = min_depth``, where
    rounding decides visibility, come out as the whole field has them."""
    camera = PinholeCamera()
    width, height = camera.width, camera.height
    along = np.linspace(0.0, 1.0, 9)
    border_pixels = np.concatenate(
        [
            np.stack([np.zeros_like(along), along * height], axis=1),  # u = 0
            np.stack([np.full_like(along, np.nextafter(width, 0.0)), along * height], axis=1),
            np.stack([along * width, np.zeros_like(along)], axis=1),  # v = 0
            np.stack([along * width, np.full_like(along, np.nextafter(height, 0.0))], axis=1),
            np.stack([along * width, along * height], axis=1),  # a diagonal, inside
        ]
    )
    depths = [camera.min_depth, 0.3, 1.0, 4.0, 25.0, 150.0]
    points_c = np.concatenate([_camera_points(camera, border_pixels, z) for z in depths])
    pose = SE3(so3_exp(np.array([0.2, -0.4, 0.1])), np.array([3.0, -2.0, 1.0]))
    rng = np.random.default_rng(7)
    filler = rng.uniform((-60.0, -40.0, -5.0), (60.0, 40.0, 160.0), size=(3000, 3))
    landmarks = pose.transform(np.concatenate([filler, points_c]))
    tracker = FeatureTracker(camera, landmarks, TrackerConfig(), np.random.default_rng(0))
    for nudge in (0.0, 1e-12, -1e-9):
        nudged = SE3(pose.rotation @ so3_exp(np.full(3, nudge)), pose.translation + nudge)
        _, visible = _assert_culling_exact(tracker, nudged)
        assert np.any(visible >= len(filler))


def test_culling_keeps_landmarks_on_cell_boundaries():
    """27 * 32 landmarks filling a 3 m cube make unit cells, so the lattice
    points at half-metre steps sit on cell faces, edges and corners."""
    rng = np.random.default_rng(11)
    steps = np.arange(0.0, 3.25, 0.5)
    lattice = np.stack(np.meshgrid(steps, steps, steps, indexing="ij"), axis=-1).reshape(-1, 3)
    filler = rng.uniform(0.0, 3.0, size=(27 * 32 - len(lattice), 3))
    landmarks = np.concatenate([lattice, filler])
    tracker = FeatureTracker(PinholeCamera(), landmarks, TrackerConfig(), np.random.default_rng(0))
    assert tracker._cell_radius == 0.5 * np.sqrt(3.0)
    for _ in range(40):
        _assert_culling_exact(tracker, _random_pose(lattice, rng))


def test_culling_keeps_non_finite_landmarks_invisible():
    rng = np.random.default_rng(5)
    landmarks = rng.uniform((-8.0, -6.0, 0.0), (8.0, 6.0, 30.0), size=(600, 3))
    bad = rng.choice(len(landmarks), size=30, replace=False)
    landmarks[bad, rng.integers(3, size=30)] = rng.choice([np.nan, np.inf, -np.inf], size=30)
    tracker = FeatureTracker(PinholeCamera(), landmarks, TrackerConfig(), np.random.default_rng(0))
    seen = 0
    for _ in range(20):
        unculled, visible = _assert_culling_exact(tracker, _random_pose(landmarks, rng))
        assert not np.isin(bad, unculled).any()
        seen += len(visible)
    assert seen > 0


@pytest.mark.parametrize("side", ["u < 0", "u >= width", "v < 0", "v >= height", "z < min_depth"])
def test_culling_drops_cells_outside_the_frustum(side):
    """A cluster beyond one border by more than its cell's radius is never
    projected; a cluster in the middle of the view always is. Each outer
    cluster sits nearer the border than the principal point's offset, so
    a plane through ``width`` or ``height`` instead of ``width - cx`` or
    ``height - cy`` would keep it."""
    camera = PinholeCamera(min_depth=30.0) if side == "z < min_depth" else PinholeCamera()
    cx, cy, width, height = camera.cx, camera.cy, camera.width, camera.height
    pixel, depth = {
        "u < 0": ((-0.5 * cx, cy), 40.0),
        "u >= width": ((width + 0.5 * cx, cy), 40.0),
        "v < 0": ((cx, -0.5 * cy), 40.0),
        "v >= height": ((cx, height + 0.5 * cy), 40.0),
        "z < min_depth": ((cx, cy), 10.0),
    }[side]
    rng = np.random.default_rng(3)
    inside = _camera_points(camera, [(cx, cy)], 40.0) + rng.normal(scale=0.05, size=(500, 3))
    outside = _camera_points(camera, [pixel], depth) + rng.normal(scale=0.05, size=(500, 3))
    pose = SE3(so3_exp(np.array([0.1, 0.3, -0.2])), np.array([5.0, -1.0, 2.0]))
    landmarks = pose.transform(np.concatenate([inside, outside]))
    tracker = FeatureTracker(camera, landmarks, TrackerConfig(), np.random.default_rng(0))
    unculled, visible = _assert_culling_exact(tracker, pose)
    assert np.array_equal(visible, np.arange(len(inside)))
    assert not np.any(unculled >= len(inside))
