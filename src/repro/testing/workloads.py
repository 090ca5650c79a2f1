"""Deterministic random-workload builders shared across the test stack.

These are plain-numpy factories (no Hypothesis dependency) for the
objects every conformance check consumes: randomized sliding-window
problems and per-window workload-statistics series. The differential oracles drive them directly from a
seed; :mod:`repro.testing.strategies` wraps them into Hypothesis
strategies; the test suite imports them instead of keeping private
copies per test module.
"""

from __future__ import annotations

import numpy as np

from repro.data.stats import WindowStats
from repro.scenarios.builders import (
    make_nominal_window,
    make_scenario_stats_series,
    make_scenario_window,
)
from repro.slam.problem import WindowProblem


def make_random_window(
    seed: int,
    num_keyframes: int = 4,
    num_features: int = 12,
    huber_delta: float | None = None,
    lift_last_keyframe: float = 0.0,
    backend: str = "batched",
    scenario: str | None = None,
) -> WindowProblem:
    """A randomized window with rotated keyframes and noisy pixels.

    The nominal shape, ``lift_last_keyframe`` included, is
    :func:`repro.scenarios.builders.make_nominal_window`. ``scenario``
    reshapes the window into a named degenerate regime via
    :func:`repro.scenarios.make_scenario_window` (``None``/``"nominal"``
    keeps the nominal shape and its exact historical RNG draw order).
    """
    if scenario is not None and scenario != "nominal":
        return make_scenario_window(
            scenario,
            seed,
            num_keyframes=num_keyframes,
            num_features=num_features,
            backend=backend,
            huber_delta=huber_delta,
        )
    return make_nominal_window(
        seed,
        num_keyframes=num_keyframes,
        num_features=num_features,
        huber_delta=huber_delta,
        lift_last_keyframe=lift_last_keyframe,
        backend=backend,
    )


def make_random_stats(
    seed: int,
    max_features: int = 200,
    max_keyframes: int = 12,
) -> WindowStats:
    """One randomized per-window workload-statistics record."""
    rng = np.random.default_rng(seed)
    num_features = int(rng.integers(1, max_features + 1))
    num_keyframes = int(rng.integers(2, max_keyframes + 1))
    avg_obs = float(rng.uniform(2.0, min(8.0, num_keyframes)))
    num_obs = int(round(avg_obs * num_features))
    return WindowStats(
        num_features=num_features,
        avg_observations=avg_obs,
        num_keyframes=num_keyframes,
        num_marginalized=int(rng.integers(0, max(num_features // 4, 1) + 1)),
        num_observations=num_obs,
    )


def make_stats_series(
    seed: int,
    num_windows: int = 16,
    max_features: int = 200,
    max_iterations: int = 6,
    scenario: str | None = None,
) -> list[tuple[WindowStats, int]]:
    """A randomized ``(WindowStats, iterations)`` series for trace replay.

    ``scenario`` shapes the series temporally (droughts decay, loop
    closures spike) via
    :func:`repro.scenarios.make_scenario_stats_series`.
    """
    if scenario is not None and scenario != "nominal":
        return make_scenario_stats_series(
            scenario,
            seed,
            num_windows=num_windows,
            max_features=max_features,
            max_iterations=max_iterations,
        )
    rng = np.random.default_rng(seed)
    series = []
    for index in range(num_windows):
        stats = make_random_stats(seed * 10_007 + index, max_features=max_features)
        series.append((stats, int(rng.integers(1, max_iterations + 1))))
    return series
