"""Deterministic fault injectors for graceful-degradation testing.

Production localization pipelines meet broken inputs constantly: dead
tracker outputs (NaN pixels), dropped feature tracks, IMU gaps,
geometrically degenerate windows, and corrupted on-disk artifacts. Each
injector here produces a *deterministically* faulted copy of its input
(the original is never mutated — sequences may be shared through the
engine memo), and :func:`graceful_outcome` classifies how the system
responds: the contract is that every layer either recovers or raises a
typed :class:`repro.errors.ReproError` — never an unhandled
``IndexError``/``LinAlgError``/``BadZipFile`` from deep inside a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.data.sequences import ImuSegment, Sequence
from repro.data.tracks import FrameObservations
from repro.errors import ConfigurationError, ReproError
from repro.slam.problem import WindowProblem

CACHE_CORRUPTION_MODES = ("truncate", "garbage", "empty")


# ----------------------------------------------------------------------
# Sequence-level injectors
# ----------------------------------------------------------------------

def inject_nan_tracks(
    sequence: Sequence, fraction: float = 0.2, seed: int = 0
) -> Sequence:
    """Replace a fraction of pixel observations with NaN (dead tracker).

    Every faulted pixel becomes ``[nan, nan]``; which observations are
    hit is a deterministic function of ``seed``: one uniform per
    observation, in frame order and ascending feature id within a frame.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    observations = []
    for obs in sequence.observations:
        pixels = obs.pixels.copy()
        pixels[rng.uniform(size=obs.num_features) < fraction] = np.nan
        observations.append(FrameObservations(obs.frame_id, obs.ids.copy(), pixels))
    return replace(sequence, observations=observations)


def inject_track_dropout(
    sequence: Sequence, fraction: float = 0.5, seed: int = 0
) -> Sequence:
    """Delete a fraction of pixel observations (lost tracks), drawn as in
    :func:`inject_nan_tracks`."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    observations = []
    for obs in sequence.observations:
        keep = rng.uniform(size=obs.num_features) >= fraction
        observations.append(FrameObservations(obs.frame_id, obs.ids[keep], obs.pixels[keep]))
    return replace(sequence, observations=observations)


def inject_imu_gap(sequence: Sequence, segment_index: int = 0) -> Sequence:
    """Empty one keyframe interval's IMU samples (sensor dropout).

    The estimator's contract is to surface this as a typed
    :class:`repro.errors.DataError` naming the gap, not to dead-reckon
    through a zero-length preintegration.
    """
    if not 0 <= segment_index < len(sequence.imu_segments):
        raise ConfigurationError(
            f"segment_index must be in [0, {len(sequence.imu_segments)}), "
            f"got {segment_index}"
        )
    segments = list(sequence.imu_segments)
    victim = segments[segment_index]
    segments[segment_index] = ImuSegment(
        timestamps=np.empty(0),
        gyro=np.empty((0, 3)),
        accel=np.empty((0, 3)),
        dt=victim.dt,
    )
    return replace(sequence, imu_segments=segments)


# ----------------------------------------------------------------------
# Window-level injector
# ----------------------------------------------------------------------

def make_degenerate_window(
    seed: int = 0, num_keyframes: int = 3, num_features: int = 8
) -> WindowProblem:
    """A rank-deficient window: zero baseline, one observation per track.

    All keyframes sit at the identical pose, so no visual factor carries
    depth information and the unregularized normal equations are
    singular — the regime LM damping (and the typed
    :class:`repro.errors.SolverError` on the undamped path) must absorb.

    This is the zero-baseline limit of the ``tunnel`` regime's feature
    drought; the single generator lives in
    :func:`repro.scenarios.make_drought_window` and this wrapper pins
    its historical defaults (draw-for-draw identical output).
    """
    from repro.scenarios import make_drought_window

    return make_drought_window(
        seed=seed, num_keyframes=num_keyframes, num_features=num_features
    )


# ----------------------------------------------------------------------
# Artifact-cache injector
# ----------------------------------------------------------------------

def corrupt_cache_artifacts(
    cache_dir: str | Path, mode: str = "truncate", seed: int = 0
) -> int:
    """Corrupt every ``.npz`` blob under a cache directory.

    Modes: ``truncate`` keeps the first half of each blob (a killed
    writer without the atomic rename), ``garbage`` overwrites with
    deterministic random bytes, ``empty`` leaves zero-byte files.
    Returns the number of blobs corrupted. The engine's contract is to
    treat every such blob as a cache miss and recompute.
    """
    if mode not in CACHE_CORRUPTION_MODES:
        raise ConfigurationError(
            f"unknown corruption mode {mode!r}; choose from {CACHE_CORRUPTION_MODES}"
        )
    rng = np.random.default_rng(seed)
    corrupted = 0
    for path in sorted(Path(cache_dir).rglob("*.npz")):
        data = path.read_bytes()
        if mode == "truncate":
            path.write_bytes(data[: len(data) // 2])
        elif mode == "garbage":
            path.write_bytes(rng.integers(0, 256, size=max(len(data), 16), dtype=np.uint8).tobytes())
        else:
            path.write_bytes(b"")
        corrupted += 1
    return corrupted


# ----------------------------------------------------------------------
# Outcome classification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GracefulOutcome:
    """How a faulted computation ended: recovery or a typed error."""

    recovered: bool
    result: object = None
    error: ReproError | None = None


def graceful_outcome(fn: Callable[[], object]) -> GracefulOutcome:
    """Run a faulted computation and classify the ending.

    Returns a :class:`GracefulOutcome` when ``fn`` either completes or
    raises a typed :class:`repro.errors.ReproError`. Any other exception
    (the library crashing on the fault) propagates to the caller — that
    is precisely the failure the degradation tests exist to catch.
    """
    try:
        return GracefulOutcome(recovered=True, result=fn())
    except ReproError as error:
        return GracefulOutcome(recovered=False, error=error)
