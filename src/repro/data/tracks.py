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

# Landmarks per grid cell if the field filled its bounding box evenly.
_CELL_OCCUPANCY = 32
# Slack of the culling test, relative to the largest coordinate in play.
# Binning, the two transforms and the pixel test each round by a few ulp
# (about 1e-15 relative), so this covers them many times over.
_RELATIVE_SLACK = 1e-9


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

    The field is binned once into a uniform grid, and a keyframe projects
    only the landmarks of cells that may meet the view frustum; the others
    cannot be visible (docs/performance.md).

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

        # Bin the finite landmarks; a non-finite one, never visible, gets
        # cell index len(occupied), which no keyframe keeps. The bounding
        # box holds about count / _CELL_OCCUPANCY cells (more for a flat
        # field), so they are counted densely rather than sorted.
        finite = np.isfinite(self.landmarks).all(axis=1)
        points = self.landmarks[finite]
        count = len(points)
        lower = points.min(axis=0) if count else np.zeros(3)
        extent = np.maximum(points.max(axis=0) - lower, 1.0) if count else np.ones(3)
        edge = float(np.cbrt(np.prod(extent) * _CELL_OCCUPANCY / max(count, 1)))
        cells = np.floor((points - lower) / edge).astype(np.int64)
        span = cells.max(axis=0, initial=0) + 1
        keys = np.ravel_multi_index(cells.T, span)
        counts = np.bincount(keys, minlength=int(np.prod(span)))
        occupied = np.flatnonzero(counts)
        self._cell_of = np.full(len(self.landmarks), len(occupied))
        self._cell_of[finite] = (np.cumsum(counts > 0) - 1)[keys]
        occupied_cells = np.stack(np.unravel_index(occupied, span), axis=1)
        self._cell_centres = lower + (occupied_cells + 0.5) * edge
        self._cell_radius = 0.5 * np.sqrt(3.0) * edge
        # Bounds every landmark and cell-centre coordinate, for the slack.
        self._scale = float(np.abs(points).max(initial=0.0)) + edge
        # Inward normals of the side planes, which pass through the camera
        # centre: for z > 0, u >= 0 is fx x + cx z >= 0, and so on.
        c = camera
        normals = np.array(
            [
                [c.fx, 0.0, c.cx],  # u >= 0
                [-c.fx, 0.0, c.width - c.cx],  # u < width
                [0.0, c.fy, c.cy],  # v >= 0
                [0.0, -c.fy, c.height - c.cy],  # v < height
            ]
        )
        self._side_normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)

    def _unculled_ids(self, pose: SE3) -> np.ndarray:
        """Ascending ids of the landmarks in cells that may meet the view.

        A cell is culled when its circumsphere, widened by the rounding
        slack, lies wholly outside one half-space of the frustum: a side
        plane or ``z >= min_depth``. ``pose.rotation`` must be a rotation,
        so that distances survive the transform.
        """
        centres = pose.transform_to_body(self._cell_centres)
        slack = _RELATIVE_SLACK * (self._scale + float(np.abs(pose.translation).max()))
        reach = -(self._cell_radius + slack)
        kept = (centres[:, 2] - self.camera.min_depth >= reach) & (
            (centres @ self._side_normals.T).min(axis=1) >= reach
        )
        return np.flatnonzero(np.append(kept, False)[self._cell_of])

    def observe(self, frame_id: int, true_pose: SE3) -> FrameObservations:
        """Produce the noisy observations of one keyframe and update tracks."""
        config, rng = self.config, self._rng
        unculled = self._unculled_ids(true_pose)
        projected, rows = project_landmarks(self.camera, true_pose, self.landmarks[unculled])
        visible = set(unculled[rows].tolist())

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
        pixels = projected[np.searchsorted(unculled, ids)]
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
