"""Per-window workload statistics.

The hardware latency models (Equ. 6, 9, 10, 13–15) are parameterized by
the per-window workload: number of feature points ``a``, average
observations per feature ``No``, keyframe count ``b``, features about to
be marginalized ``am``, and the per-keyframe state size ``k`` (fixed at
15). :class:`WindowStats` is the record the analytical models, the cycle
simulator, and the CPU baselines all read, so they agree on the work
being measured. The estimator fills one per window, counting as ``am``
the features anchored at the oldest keyframe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.navstate import STATE_DIM


@dataclass(frozen=True)
class WindowStats:
    """Per-window workload statistics (the paper's a, No, b, am, k)."""

    num_features: int  # a
    avg_observations: float  # No
    num_keyframes: int  # b
    num_marginalized: int  # am
    state_size: int = STATE_DIM  # k
    num_observations: int = 0

    def __post_init__(self) -> None:
        if self.num_features < 0 or self.num_keyframes < 0 or self.num_marginalized < 0:
            raise ValueError("window statistics must be non-negative")

    @property
    def a(self) -> int:
        return self.num_features

    @property
    def no(self) -> float:
        return self.avg_observations

    @property
    def b(self) -> int:
        return self.num_keyframes

    @property
    def am(self) -> int:
        return self.num_marginalized

    @property
    def k(self) -> int:
        return self.state_size


def sequence_stats(per_window: list[WindowStats]) -> dict[str, float]:
    """Aggregate statistics over a run: means used to size static designs."""
    if not per_window:
        return {
            "mean_features": 0.0,
            "mean_observations_per_feature": 0.0,
            "mean_keyframes": 0.0,
            "mean_marginalized": 0.0,
            "max_features": 0.0,
        }
    features = np.array([w.num_features for w in per_window], dtype=float)
    avg_obs = np.array([w.avg_observations for w in per_window])
    keyframes = np.array([w.num_keyframes for w in per_window], dtype=float)
    marginalized = np.array([w.num_marginalized for w in per_window], dtype=float)
    return {
        "mean_features": float(features.mean()),
        "mean_observations_per_feature": float(avg_obs.mean()),
        "mean_keyframes": float(keyframes.mean()),
        "mean_marginalized": float(marginalized.mean()),
        "max_features": float(features.max()),
    }
