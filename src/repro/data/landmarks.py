"""Landmark field generation.

Landmarks are scattered around the trajectory with a *density profile*
that varies smoothly along the path. The sparse stretches are what drive
the feature-count dynamics of Fig. 11 and the run-time knob of Sec. 6:
when the agent crosses a texture-poor region the tracker finds fewer
points, accuracy degrades, and the NLS solver needs more iterations.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.data.trajectory import _SmoothTrajectory, row_blocks


def density_profile(
    period: float = 40.0, floor: float = 0.15
) -> Callable[[float | np.ndarray], float | np.ndarray]:
    """A smooth [floor, 1] density along path time with feature-poor dips.

    The returned profile takes a float or an ``(n,)`` array of times.

    Args:
        period: approximate seconds between successive density dips.
        floor: minimum density (relative to the rich regions).
    """
    if period <= 0:
        raise ConfigurationError("period must be positive")
    if not 0.0 < floor <= 1.0:
        raise ConfigurationError("floor must be in (0, 1]")
    w1 = 2.0 * np.pi / period
    w2 = 2.0 * np.pi / (period * 2.7)

    def profile(t: float | np.ndarray) -> float | np.ndarray:
        raw = 0.55 + 0.35 * np.sin(w1 * t) + 0.25 * np.sin(w2 * t + 1.3)
        return np.clip(raw, floor, 1.0)

    return profile


def make_landmarks(
    trajectory: _SmoothTrajectory,
    duration: float,
    rng: np.random.Generator,
    count: int = 4000,
    lateral_spread: float = 12.0,
    vertical_spread: float = 4.0,
    forward_spread: float = 4.0,
    density: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Scatter ``count`` candidate landmarks around the trajectory tube.

    Each landmark is anchored at a random time along the path and offset
    by a random displacement, then accepted with probability given by the
    density profile at its anchor time. Returns an (M, 3) array with
    M <= count.
    """
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    density = density or density_profile()

    anchor_times = rng.uniform(0.0, duration, size=count)
    keep = rng.uniform(size=count) < density(anchor_times)
    anchor_times = anchor_times[keep]
    # One draw per axis per landmark, in the order a per-landmark loop
    # would make them.
    offsets = rng.normal(
        scale=(forward_spread, lateral_spread, vertical_spread),
        size=(anchor_times.size, 3),
    )

    points = np.empty_like(offsets)
    for rows in row_blocks(anchor_times.size):
        t = anchor_times[rows]
        # Rotate the offset into the local heading so the cloud follows
        # the path (lateral offsets stay lateral through turns).
        rotated = np.matmul(trajectory.rotation(t), offsets[rows, :, None])[:, :, 0]
        points[rows] = trajectory.position(t) + rotated
    return points
