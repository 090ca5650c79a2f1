"""Feature-tracking simulation.

Emulates the sensing front-end the paper's host runs: at every keyframe
the tracker keeps following landmarks it already tracks (when still
visible), tops the set up to ``max_features`` with new detections, and
reports pixel observations corrupted by white measurement noise. Track
continuity is what gives the window its characteristic statistics —
roughly 10x more feature points than keyframes and several observations
per feature (the paper's ``No``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.camera import PinholeCamera
from repro.geometry.se3 import SE3


@dataclass
class TrackerConfig:
    """Front-end tuning knobs.

    Attributes:
        max_features: feature budget per keyframe (detector cap).
        pixel_sigma: measurement noise std [px].
        drop_probability: chance an existing track is lost per frame
            even while visible (occlusion / matching failure).
        min_track_length: tracks observed fewer times are discarded when
            a window is assembled (they carry too little constraint).
        outlier_probability: chance an observation is a gross mismatch
            (the pixel is replaced by a uniformly random image location)
            — the failure mode robust kernels must survive.
    """

    max_features: int = 200
    pixel_sigma: float = 1.0
    drop_probability: float = 0.05
    min_track_length: int = 2
    outlier_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.max_features < 1:
            raise ConfigurationError("max_features must be >= 1")
        if self.pixel_sigma < 0:
            raise ConfigurationError("pixel_sigma must be non-negative")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError("drop_probability must be in [0, 1)")
        if not 0.0 <= self.outlier_probability < 1.0:
            raise ConfigurationError("outlier_probability must be in [0, 1)")


@dataclass
class FrameObservations:
    """All feature observations of one keyframe, as two aligned arrays.

    Attributes:
        frame_id: the keyframe index.
        ids: ``(n,)`` int64 feature ids, strictly ascending.
        pixels: ``(n, 2)`` float64; row ``i`` is feature ``ids[i]``'s pixel.
    """

    frame_id: int
    ids: np.ndarray
    pixels: np.ndarray

    @property
    def num_features(self) -> int:
        return len(self.ids)


def project_landmarks(
    camera: PinholeCamera, pose: SE3, landmarks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project every landmark once: ``(M, 2)`` pixels and visible indices.

    The two steps :meth:`PinholeCamera.project` takes for one point, over
    all rows, so a visible row is the pixel a per-point projection returns
    (docs/performance.md); rows behind the camera hold meaningless numbers.
    """
    points_c = pose.transform_to_body(landmarks)
    pixels = camera.project_camera_points_batch(points_c)
    u, v = pixels[:, 0], pixels[:, 1]
    ok = (
        (points_c[:, 2] >= camera.min_depth)
        & (u >= 0.0)
        & (u < camera.width)
        & (v >= 0.0)
        & (v < camera.height)
    )
    return pixels, np.flatnonzero(ok)


class FeatureTracker:
    """Stateful simulated tracker over a fixed landmark field.

    Per keyframe it draws, in order: a drop uniform per continued track
    (in the tracked-and-visible set's iteration order), ``choice`` when the
    budget is short, then per observation in id order the outlier draws,
    if on, and the pixel noise. The block draws in :meth:`observe` make
    exactly these scalar draws.
    """

    def __init__(
        self,
        camera: PinholeCamera,
        landmarks: np.ndarray,
        config: TrackerConfig,
        rng: np.random.Generator,
    ) -> None:
        self.camera = camera
        self.landmarks = np.asarray(landmarks, dtype=float).reshape(-1, 3)
        self.config = config
        self._rng = rng
        self._active: set[int] = set()

    def observe(self, frame_id: int, true_pose: SE3) -> FrameObservations:
        """Produce the noisy observations of one keyframe and update tracks."""
        config, rng = self.config, self._rng
        projected, visible_ids = project_landmarks(self.camera, true_pose, self.landmarks)
        visible = set(visible_ids.tolist())

        # Continue existing tracks that remain visible (modulo drops). The
        # set's iteration order is the draw order, and survivors are added
        # in that order too: their layout orders the next frame's draws.
        tracked = list(self._active & visible)
        kept = (rng.uniform(size=len(tracked)) >= config.drop_probability).tolist()
        survivors = {fid for fid, keep in zip(tracked, kept) if keep}

        # Top up with fresh detections, preferring untracked landmarks.
        budget = config.max_features - len(survivors)
        if budget > 0:
            candidates = np.array(sorted(visible - survivors), dtype=int)
            if candidates.size > budget:
                candidates = rng.choice(candidates, size=budget, replace=False)
            survivors.update(candidates.tolist())

        ids = np.array(sorted(survivors), dtype=np.int64)
        pixels = projected[ids]
        if config.outlier_probability > 0.0:
            # Whether a feature's next two draws are uniforms (outlier)
            # or normals (noise) depends on its first draw.
            for row in range(len(ids)):
                if rng.uniform() < config.outlier_probability:
                    # Gross mismatch: the tracker latched onto the wrong
                    # image patch somewhere in the frame.
                    pixels[row] = (
                        rng.uniform(0.0, self.camera.width),
                        rng.uniform(0.0, self.camera.height),
                    )
                else:
                    pixels[row] += rng.normal(scale=config.pixel_sigma, size=2)
        else:
            pixels += rng.normal(scale=config.pixel_sigma, size=(len(ids), 2))
        self._active = survivors
        return FrameObservations(frame_id, ids, pixels)
