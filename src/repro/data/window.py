"""Sliding-window data structures.

A :class:`SlidingWindow` is the unit of work the accelerator processes:
``b`` keyframes with 15-DoF states, the feature tracks observed inside the
window, and the IMU preintegrations linking consecutive keyframes. The
estimator mutates the states in place as the NLS solver iterates; the
hardware models read only the window's counts via
:mod:`repro.data.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DataError
from repro.geometry.navstate import NavState
from repro.imu.preintegration import ImuPreintegration


@dataclass
class Keyframe:
    """One keyframe: an id, a timestamp, the estimated and true states."""

    frame_id: int
    timestamp: float
    state: NavState
    true_state: NavState | None = None


@dataclass
class FeatureTrack:
    """One landmark track inside a window.

    Attributes:
        feature_id: stable id across windows.
        position: current 3D estimate in world coordinates.
        observations: mapping keyframe id -> observed pixel (2,).
        true_position: ground-truth landmark position, if known.
    """

    feature_id: int
    position: np.ndarray
    observations: dict[int, np.ndarray] = field(default_factory=dict)
    true_position: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(3)

    @property
    def num_observations(self) -> int:
        return len(self.observations)


@dataclass
class SlidingWindow:
    """The optimization window: keyframes, features, IMU links, prior."""

    keyframes: list[Keyframe] = field(default_factory=list)
    features: dict[int, FeatureTrack] = field(default_factory=dict)
    # preintegrations[i] links keyframes[i] -> keyframes[i + 1].
    preintegrations: list[ImuPreintegration] = field(default_factory=list)

    def validate(self) -> None:
        """Raise :class:`DataError` if the window is structurally broken."""
        if len(self.preintegrations) != max(len(self.keyframes) - 1, 0):
            raise DataError(
                f"window has {len(self.keyframes)} keyframes but "
                f"{len(self.preintegrations)} preintegrations"
            )
        frame_ids = {kf.frame_id for kf in self.keyframes}
        if len(frame_ids) != len(self.keyframes):
            raise DataError("duplicate keyframe ids in window")
        for track in self.features.values():
            unknown = set(track.observations) - frame_ids
            if unknown:
                raise DataError(
                    f"feature {track.feature_id} observes unknown keyframes {sorted(unknown)}"
                )

    @property
    def num_keyframes(self) -> int:
        return len(self.keyframes)

    @property
    def num_features(self) -> int:
        return len(self.features)

    @property
    def num_observations(self) -> int:
        return sum(t.num_observations for t in self.features.values())

    def features_seen_only_by(self, frame_id: int) -> list[int]:
        """Feature ids whose every observation is in keyframe ``frame_id``."""
        return [
            fid
            for fid, track in self.features.items()
            if set(track.observations) == {frame_id}
        ]
