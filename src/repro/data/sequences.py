"""Sequence factories: EuRoC-MH-like and KITTI-like synthetic recordings.

A :class:`Sequence` is the full sensor recording the estimator consumes:
keyframe timestamps with ground-truth navigation states, per-keyframe
feature observations from the simulated tracker, raw IMU sample streams
between consecutive keyframes, and the landmark field (kept for
evaluation only — the estimator never reads ground truth).

``EUROC_SEQUENCES`` mirrors the five Machine Hall difficulty levels
(MH_01 easy ... MH_05 difficult — increasing flight aggressiveness) and
``KITTI_SEQUENCES`` the eleven odometry training sequences (varying turn
statistics and texture-density profiles).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.camera import PinholeCamera
from repro.geometry.navstate import NavState
from repro.geometry.se3 import SE3
from repro.imu.noise import ImuNoise
from repro.imu.preintegration import GRAVITY
from repro.data.landmarks import density_profile, make_landmarks
from repro.data.tracks import FeatureTracker, FrameObservations, TrackerConfig
from repro.data.trajectory import CarTrajectory, DroneTrajectory, row_blocks
from repro.utils.rng import rng_from_seed, split_seed


@dataclass(frozen=True)
class SequenceConfig:
    """Everything needed to deterministically synthesize one sequence."""

    name: str = "MH_01"
    kind: str = "drone"  # "drone" (EuRoC-like) or "car" (KITTI-like)
    seed: int = 0
    duration: float = 60.0
    keyframe_rate: float = 5.0
    imu_rate: float = 200.0
    landmark_count: int = 4000
    density_period: float = 40.0
    density_floor: float = 0.15
    motion_scale: float = 1.0  # speed_scale (drone) / turn_scale (car)
    camera: PinholeCamera = field(default_factory=PinholeCamera)
    imu_noise: ImuNoise = field(default_factory=ImuNoise)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)

    def __post_init__(self) -> None:
        if self.kind not in ("drone", "car"):
            raise ConfigurationError(f"kind must be 'drone' or 'car', got {self.kind!r}")
        if self.duration <= 0 or self.keyframe_rate <= 0 or self.imu_rate <= 0:
            raise ConfigurationError("duration and rates must be positive")
        if self.imu_rate < 2 * self.keyframe_rate:
            raise ConfigurationError("imu_rate must be well above keyframe_rate")
        if self.landmark_count < 1:
            raise ConfigurationError(
                f"landmark_count must be >= 1, got {self.landmark_count!r}"
            )
        if not self.density_period > 0:
            raise ConfigurationError(
                f"density_period must be positive, got {self.density_period!r}"
            )
        if not 0.0 < self.density_floor <= 1.0:
            raise ConfigurationError(
                f"density_floor must be in (0, 1], got {self.density_floor!r}"
            )
        if self.kind == "drone" and not self.motion_scale > 0:
            raise ConfigurationError(
                f"motion_scale must be positive for a drone, got {self.motion_scale!r}"
            )


@dataclass
class ImuSegment:
    """Raw IMU samples covering one keyframe interval."""

    timestamps: np.ndarray  # (N,)
    gyro: np.ndarray  # (N, 3), bias + noise included
    accel: np.ndarray  # (N, 3), specific force, bias + noise included
    dt: float  # uniform sample interval


@dataclass
class Sequence:
    """A complete synthetic visual-inertial recording."""

    config: SequenceConfig
    timestamps: np.ndarray  # (B,) keyframe times
    true_states: list[NavState]
    observations: list[FrameObservations]
    imu_segments: list[ImuSegment]  # B - 1 segments
    landmarks: np.ndarray  # (M, 3)
    true_bias_gyro: np.ndarray
    true_bias_accel: np.ndarray

    @property
    def num_keyframes(self) -> int:
        return len(self.timestamps)

    def feature_counts(self) -> np.ndarray:
        """Tracked-feature count per keyframe (the run-time load signal)."""
        return np.array([obs.num_features for obs in self.observations])


def _make_trajectory(config: SequenceConfig, rng: np.random.Generator):
    if config.kind == "drone":
        return DroneTrajectory(
            speed_scale=config.motion_scale,
            phases=rng.uniform(0.0, 2.0 * np.pi, size=6),
        )
    return CarTrajectory(
        turn_scale=config.motion_scale,
        phases=rng.uniform(0.0, 2.0 * np.pi, size=4),
    )


def make_sequence(config: SequenceConfig) -> Sequence:
    """Synthesize a sequence from its configuration (bit-deterministic)."""
    traj_rng = rng_from_seed(split_seed(config.seed, f"{config.name}:trajectory"))
    land_rng = rng_from_seed(split_seed(config.seed, f"{config.name}:landmarks"))
    track_rng = rng_from_seed(split_seed(config.seed, f"{config.name}:tracks"))
    imu_rng = rng_from_seed(split_seed(config.seed, f"{config.name}:imu"))

    trajectory = _make_trajectory(config, traj_rng)
    spread = (
        dict(lateral_spread=4.0, vertical_spread=2.0, forward_spread=4.0)
        if config.kind == "drone"
        else dict(lateral_spread=14.0, vertical_spread=4.0, forward_spread=6.0)
    )
    landmarks = make_landmarks(
        trajectory,
        config.duration,
        land_rng,
        count=config.landmark_count,
        density=density_profile(config.density_period, config.density_floor),
        **spread,
    )

    num_keyframes = int(np.floor(config.duration * config.keyframe_rate)) + 1
    timestamps = np.arange(num_keyframes) / config.keyframe_rate

    true_bias_gyro = imu_rng.normal(scale=2e-3, size=3)
    true_bias_accel = imu_rng.normal(scale=2e-2, size=3)

    true_states = [
        NavState(
            pose=SE3(rotation, position),
            velocity=velocity,
            bias_gyro=true_bias_gyro,
            bias_accel=true_bias_accel,
        )
        for rotation, position, velocity in zip(
            trajectory.rotation(timestamps),
            trajectory.position(timestamps),
            trajectory.velocity(timestamps),
        )
    ]

    tracker = FeatureTracker(config.camera, landmarks, config.tracker, track_rng)
    observations = [
        tracker.observe(frame_id, state.pose)
        for frame_id, state in enumerate(true_states)
    ]

    imu_segments = _synthesize_imu(
        trajectory, timestamps, config, true_bias_gyro, true_bias_accel, imu_rng
    )

    return Sequence(
        config=config,
        timestamps=timestamps,
        true_states=true_states,
        observations=observations,
        imu_segments=imu_segments,
        landmarks=landmarks,
        true_bias_gyro=true_bias_gyro,
        true_bias_accel=true_bias_accel,
    )


def _synthesize_imu(
    trajectory,
    timestamps: np.ndarray,
    config: SequenceConfig,
    bias_gyro: np.ndarray,
    bias_accel: np.ndarray,
    rng: np.random.Generator,
) -> list[ImuSegment]:
    """Sample ideal body-frame IMU readings between keyframes and corrupt them."""
    dt = 1.0 / config.imu_rate
    starts = [float(t) for t in timestamps[:-1]]
    counts = [
        max(int(round((float(t_end) - t_start) * config.imu_rate)), 1)
        for t_start, t_end in zip(starts, timestamps[1:])
    ]
    times = [t_start + np.arange(count) * dt for t_start, count in zip(starts, counts)]
    # Sample at the interval midpoint so a single Euler step of the
    # preintegrator stays second-order accurate.
    midpoints = np.concatenate([np.empty(0), *times]) + 0.5 * dt
    gyro = np.empty((midpoints.size, 3))
    accel = np.empty((midpoints.size, 3))
    for rows in row_blocks(midpoints.size):
        tm = midpoints[rows]
        gyro[rows] = trajectory.angular_velocity_body(tm) + bias_gyro
        world_to_body = np.swapaxes(trajectory.rotation(tm), 1, 2)
        specific_force = trajectory.acceleration(tm) - GRAVITY
        accel[rows] = np.matmul(world_to_body, specific_force[:, :, None])[:, :, 0] + bias_accel

    noise = config.imu_noise
    gyro_sigma = noise.discrete_gyro_sigma(dt) if noise.gyro_noise > 0 else 0.0
    accel_sigma = noise.discrete_accel_sigma(dt) if noise.accel_noise > 0 else 0.0
    noisy = [
        (out, sigma) for out, sigma in ((gyro, gyro_sigma), (accel, accel_sigma)) if sigma > 0.0
    ]
    if noisy:
        # Per sample: three gyro draws, then three accel draws, the order
        # a per-sample loop would make them.
        draws = rng.normal(
            scale=np.repeat([sigma for _, sigma in noisy], 3),
            size=(midpoints.size, 3 * len(noisy)),
        )
        for column, (out, _) in enumerate(noisy):
            out += draws[:, 3 * column : 3 * column + 3]

    bounds = np.cumsum(counts)[:-1]
    return [
        ImuSegment(timestamps=t, gyro=g, accel=a, dt=dt)
        for t, g, a in zip(times, np.split(gyro, bounds), np.split(accel, bounds))
    ]


def _euroc_config(name: str, seed: int, motion_scale: float) -> SequenceConfig:
    return SequenceConfig(
        name=name,
        kind="drone",
        seed=seed,
        duration=60.0,
        keyframe_rate=5.0,
        imu_rate=200.0,
        landmark_count=3500,
        density_period=25.0,
        motion_scale=motion_scale,
    )


def _kitti_config(name: str, seed: int, turn_scale: float, period: float) -> SequenceConfig:
    return SequenceConfig(
        name=name,
        kind="car",
        seed=seed,
        duration=120.0,
        keyframe_rate=5.0,
        imu_rate=100.0,
        landmark_count=22000,
        density_period=period,
        density_floor=0.12,
        motion_scale=turn_scale,
    )


EUROC_SEQUENCES: dict[str, SequenceConfig] = {
    "MH_01": _euroc_config("MH_01", 101, 0.6),
    "MH_02": _euroc_config("MH_02", 102, 0.7),
    "MH_03": _euroc_config("MH_03", 103, 1.0),
    "MH_04": _euroc_config("MH_04", 104, 1.2),
    "MH_05": _euroc_config("MH_05", 105, 1.3),
}

KITTI_SEQUENCES: dict[str, SequenceConfig] = {
    f"{i:02d}": _kitti_config(f"{i:02d}", 200 + i, scale, period)
    for i, (scale, period) in enumerate(
        [
            (1.0, 45.0),
            (0.3, 60.0),
            (0.8, 40.0),
            (0.6, 35.0),
            (0.4, 55.0),
            (0.9, 42.0),
            (1.1, 38.0),
            (0.7, 50.0),
            (0.5, 47.0),
            (1.0, 33.0),
            (0.8, 44.0),
        ]
    )
}


def make_euroc_sequence(name: str = "MH_01", duration: float | None = None) -> Sequence:
    """Build a EuRoC-Machine-Hall-like sequence by name (MH_01..MH_05)."""
    if name not in EUROC_SEQUENCES:
        raise ConfigurationError(
            f"unknown EuRoC sequence {name!r}; choose from {sorted(EUROC_SEQUENCES)}"
        )
    config = EUROC_SEQUENCES[name]
    if duration is not None:
        config = replace(config, duration=duration)
    return make_sequence(config)


def make_kitti_sequence(name: str = "00", duration: float | None = None) -> Sequence:
    """Build a KITTI-Odometry-like sequence by name ('00'..'10')."""
    if name not in KITTI_SEQUENCES:
        raise ConfigurationError(
            f"unknown KITTI sequence {name!r}; choose from {sorted(KITTI_SEQUENCES)}"
        )
    config = KITTI_SEQUENCES[name]
    if duration is not None:
        config = replace(config, duration=duration)
    return make_sequence(config)
