"""Synthetic visual-inertial datasets.

The paper evaluates on EuRoC (drone, Machine Hall sequences) and KITTI
Odometry (car). We cannot ship those recordings, so this package
synthesizes sequences with the same *structure*: smooth 6-DoF
trajectories, 3D landmarks, pixel-noise feature tracks with realistic
track lengths, and raw IMU streams — all deterministic given a seed.
The estimator, hardware models and every experiment consume only this
structure (sliding-window workload statistics and residual/Jacobian
shapes), which is what makes the substitution faithful; see DESIGN.md.
"""

from repro.data.stats import WindowStats, sequence_stats
from repro.data.trajectory import DroneTrajectory, CarTrajectory
from repro.data.sequences import (
    Sequence,
    SequenceConfig,
    make_sequence,
    make_euroc_sequence,
    make_kitti_sequence,
    EUROC_SEQUENCES,
    KITTI_SEQUENCES,
)

__all__ = [
    "WindowStats",
    "sequence_stats",
    "DroneTrajectory",
    "CarTrajectory",
    "Sequence",
    "SequenceConfig",
    "make_sequence",
    "make_euroc_sequence",
    "make_kitti_sequence",
    "EUROC_SEQUENCES",
    "KITTI_SEQUENCES",
]
