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
from repro.geometry.camera import PinholeCamera
from repro.geometry.navstate import NavState
from repro.geometry.se3 import SE3
from repro.geometry.so3 import so3_exp
from repro.imu.preintegration import ImuPreintegration
from repro.slam.problem import WindowProblem
from repro.slam.residuals import ImuFactor, VisualFactor, make_pose_anchor_prior


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

    ``lift_last_keyframe`` pushes the final keyframe down the optical
    axis so features shallower than the lift land behind its camera —
    the culled-observation regime the boolean mask must reproduce.

    ``scenario`` reshapes the window into a named degenerate regime via
    :func:`repro.scenarios.make_scenario_window` (``None``/``"nominal"``
    keeps the nominal shape and its exact historical RNG draw order).
    """
    if scenario is not None and scenario != "nominal":
        from repro.scenarios import make_scenario_window

        return make_scenario_window(
            scenario,
            seed,
            num_keyframes=num_keyframes,
            num_features=num_features,
            backend=backend,
            huber_delta=huber_delta,
        )
    rng = np.random.default_rng(seed)
    camera = PinholeCamera()
    states: dict[int, NavState] = {}
    for k in range(num_keyframes):
        rotation = so3_exp(rng.normal(scale=0.03, size=3))
        position = np.array([0.45 * k, 0.0, 0.0]) + rng.normal(scale=0.02, size=3)
        if k == num_keyframes - 1:
            position[2] += lift_last_keyframe
        states[k] = NavState(
            pose=SE3(rotation, position),
            velocity=np.array([0.45 / 0.2, 0.0, 0.0]) + rng.normal(scale=0.05, size=3),
        )

    factors: list[VisualFactor] = []
    inv_depths: dict[int, float] = {}
    for fid in range(num_features):
        anchor = int(rng.integers(0, num_keyframes - 1))
        bearing = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3), 1.0])
        depth = rng.uniform(2.5, 9.0)
        observed = 0
        for target in range(anchor + 1, num_keyframes):
            pixel = np.array(
                [rng.uniform(0.0, camera.width), rng.uniform(0.0, camera.height)]
            )
            factors.append(
                VisualFactor(
                    fid,
                    anchor,
                    target,
                    bearing,
                    pixel,
                    weight=float(rng.uniform(0.5, 2.0)),
                )
            )
            observed += 1
        if observed:
            inv_depths[fid] = float(1.0 / depth)
    factors = [f for f in factors if f.feature_id in inv_depths]

    imu_factors = []
    for k in range(1, num_keyframes):
        pre = ImuPreintegration()
        for _ in range(40):
            pre.integrate(np.zeros(3), np.array([0.0, 0.0, 9.81]), 0.005, 1e-3, 1e-2)
        imu_factors.append(ImuFactor(k - 1, k, pre))

    return WindowProblem(
        camera=camera,
        states=states,
        inv_depths=inv_depths,
        visual_factors=factors,
        imu_factors=imu_factors,
        priors=[make_pose_anchor_prior(0, states[0])],
        huber_delta=huber_delta,
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
        from repro.scenarios import make_scenario_stats_series

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
