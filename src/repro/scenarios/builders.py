"""Lowering scenario specs into concrete workloads.

Three lowering targets, one per layer of the stack:

* :func:`make_scenario_window` — a single :class:`WindowProblem` shaped
  by the regime, for the differential oracles and the estimator/NLS
  paths. Every matrix window keeps its IMU factors and the pose anchor
  prior, so the problems are *hard but solvable* — the exactly singular
  limit is the fault injector's corner, reached through
  :func:`make_drought_window` with ``baseline=0``.
* :func:`make_scenario_stats_series` — a ``(WindowStats, iterations)``
  series with the regime's temporal shape (droughts decay, loop
  closures spike), for the cycle-trace / latency-model paths.
* :func:`scenario_sequence_config` — a :class:`SequenceConfig` whose
  synthetic recording exhibits the regime, for the serving tier's
  scenario-tagged load profiles.

All three are pure functions of ``(spec, seed)`` — bit-deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.data.sequences import SequenceConfig
from repro.data.stats import WindowStats
from repro.data.tracks import TrackerConfig
from repro.geometry.camera import PinholeCamera
from repro.geometry.navstate import NavState
from repro.geometry.se3 import SE3
from repro.geometry.so3 import so3_exp
from repro.imu.preintegration import ImuPreintegration
from repro.scenarios.spec import (
    REGIME_AGGRESSIVE,
    REGIME_HIGHWAY,
    REGIME_LOOP_CLOSURE,
    REGIME_NOMINAL,
    REGIME_TUNNEL,
    ScenarioSpec,
    resolve_scenario,
)
from repro.slam.problem import WindowProblem
from repro.slam.residuals import ImuFactor, VisualFactor, make_pose_anchor_prior
from repro.utils.rng import rng_from_seed, split_seed

# Keyframe spacing of the nominal forward-motion shape.
_NOMINAL_STEP = 0.45
_KF_DT = 0.2


def _static_imu_factors(num_keyframes: int) -> list[ImuFactor]:
    """The hover preintegrations every synthetic window carries."""
    factors = []
    for k in range(1, num_keyframes):
        pre = ImuPreintegration()
        for _ in range(40):
            pre.integrate(np.zeros(3), np.array([0.0, 0.0, 9.81]), 0.005, 1e-3, 1e-2)
        factors.append(ImuFactor(k - 1, k, pre))
    return factors


# ----------------------------------------------------------------------
# The drought window: the single code path behind both the tunnel
# regime and the fault injector's degenerate window
# ----------------------------------------------------------------------

def make_drought_window(
    seed: int = 0,
    num_keyframes: int = 3,
    num_features: int = 8,
    baseline: float = 0.0,
    conditioned: bool = False,
    backend: str = "batched",
) -> WindowProblem:
    """A feature-drought window: tiny baseline, one observation per track.

    ``baseline`` is the per-keyframe translation. At ``baseline=0`` with
    ``conditioned=False`` this is *exactly* the rank-deficient window the
    fault injector (:func:`repro.testing.faults.make_degenerate_window`)
    hands to the graceful-degradation tests: identical poses, so no
    visual factor carries depth information and the unregularized normal
    equations are singular. ``conditioned=True`` adds the IMU factors and
    the pose anchor prior back, which is how the tunnel regime stays in
    oracle-comparable (solvable) territory while keeping the same
    drought geometry and the same RNG draw order.
    """
    rng = np.random.default_rng(seed)
    camera = PinholeCamera()
    states = {
        k: NavState(
            pose=SE3(np.eye(3), np.array([baseline * k, 0.0, 0.0])),
            velocity=(
                np.array([baseline / _KF_DT, 0.0, 0.0])
                if conditioned
                else np.zeros(3)
            ),
        )
        for k in range(num_keyframes)
    }
    factors = []
    inv_depths = {}
    for fid in range(num_features):
        bearing = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 1.0])
        pixel = np.array(
            [rng.uniform(0.0, camera.width), rng.uniform(0.0, camera.height)]
        )
        factors.append(VisualFactor(fid, 0, 1, bearing, pixel, weight=1.0))
        inv_depths[fid] = 0.2
    return WindowProblem(
        camera=camera,
        states=states,
        inv_depths=inv_depths,
        visual_factors=factors,
        imu_factors=_static_imu_factors(num_keyframes) if conditioned else [],
        priors=[make_pose_anchor_prior(0, states[0])] if conditioned else [],
        backend=backend,
    )


# ----------------------------------------------------------------------
# The structured regimes: one parameterized geometry
# ----------------------------------------------------------------------

def _structured_window(
    seed: int,
    num_keyframes: int,
    num_features: int,
    *,
    step: float,
    axis: int,
    rot_noise: float,
    bearing_spread: tuple[float, float],
    depth_range: tuple[float, float],
    anchor_origin: bool,
    track_length: int | None,
    backend: str,
    huber_delta: float | None,
    lift_last_keyframe: float = 0.0,
) -> WindowProblem:
    """The shared keyframes-past-a-feature-field generator.

    ``axis`` selects the motion direction (0 = lateral like the nominal
    builder, 2 = along the optical axis for highway), ``anchor_origin``
    pins every track's anchor to frame 0 (revisited landmarks),
    ``track_length`` caps how many later keyframes observe each feature
    (``None`` = all of them — long tracks), and ``lift_last_keyframe``
    pushes the final keyframe along +z after its position noise.
    """
    rng = np.random.default_rng(seed)
    camera = PinholeCamera()
    states: dict[int, NavState] = {}
    for k in range(num_keyframes):
        rotation = so3_exp(rng.normal(scale=rot_noise, size=3))
        position = np.zeros(3)
        position[axis] = step * k
        position += rng.normal(scale=0.02, size=3)
        if k == num_keyframes - 1:
            position[2] += lift_last_keyframe
        velocity = np.zeros(3)
        velocity[axis] = step / _KF_DT
        states[k] = NavState(
            pose=SE3(rotation, position),
            velocity=velocity + rng.normal(scale=0.05, size=3),
        )

    factors: list[VisualFactor] = []
    inv_depths: dict[int, float] = {}
    sx, sy = bearing_spread
    for fid in range(num_features):
        anchor = 0 if anchor_origin else int(rng.integers(0, num_keyframes - 1))
        bearing = np.array([rng.uniform(-sx, sx), rng.uniform(-sy, sy), 1.0])
        depth = rng.uniform(*depth_range)
        last = (
            num_keyframes
            if track_length is None
            else min(anchor + 1 + track_length, num_keyframes)
        )
        observed = 0
        for target in range(anchor + 1, last):
            pixel = np.array(
                [rng.uniform(0.0, camera.width), rng.uniform(0.0, camera.height)]
            )
            factors.append(
                VisualFactor(
                    fid, anchor, target, bearing, pixel,
                    weight=float(rng.uniform(0.5, 2.0)),
                )
            )
            observed += 1
        if observed:
            inv_depths[fid] = float(1.0 / depth)
    factors = [f for f in factors if f.feature_id in inv_depths]

    return WindowProblem(
        camera=camera,
        states=states,
        inv_depths=inv_depths,
        visual_factors=factors,
        imu_factors=_static_imu_factors(num_keyframes),
        priors=[make_pose_anchor_prior(0, states[0])],
        huber_delta=huber_delta,
        backend=backend,
    )


def make_nominal_window(
    seed: int,
    num_keyframes: int = 4,
    num_features: int = 12,
    huber_delta: float | None = None,
    lift_last_keyframe: float = 0.0,
    backend: str = "batched",
) -> WindowProblem:
    """The nominal window: rotated keyframes stepping laterally past a
    field of 2.5-9 m features, every track observed by all later frames.

    ``lift_last_keyframe`` pushes the final keyframe down the optical
    axis so features shallower than the lift land behind its camera —
    the culled-observation regime the boolean mask must reproduce.
    """
    return _structured_window(
        seed,
        num_keyframes,
        num_features,
        step=_NOMINAL_STEP,
        axis=0,
        rot_noise=0.03,
        bearing_spread=(0.4, 0.3),
        depth_range=(2.5, 9.0),
        anchor_origin=False,
        track_length=None,
        backend=backend,
        huber_delta=huber_delta,
        lift_last_keyframe=lift_last_keyframe,
    )


def make_scenario_window(
    scenario: str | ScenarioSpec,
    seed: int,
    num_keyframes: int = 4,
    num_features: int = 12,
    backend: str = "batched",
    huber_delta: float | None = None,
) -> WindowProblem:
    """One window problem shaped by the scenario's regime.

    ``num_keyframes``/``num_features`` are the *nominal* scale; each
    regime reshapes them (tunnel decays the feature count, loop closure
    grows it). Mixtures pick their regime deterministically from the
    seed, so a sweep over seeds samples the mixture's components.
    """
    spec = resolve_scenario(scenario)
    regime = spec.regime_at(int(seed))
    sev = spec.severity
    if regime == REGIME_NOMINAL:
        return make_nominal_window(
            seed,
            num_keyframes=num_keyframes,
            num_features=num_features,
            huber_delta=huber_delta,
            backend=backend,
        )
    if regime == REGIME_TUNNEL:
        # Track counts decay toward zero; the baseline shrinks toward
        # (but never reaches) the fault injector's singular limit.
        drought_features = max(2, int(round(num_features * (1.0 - 0.8 * sev))))
        return make_drought_window(
            seed,
            num_keyframes=num_keyframes,
            num_features=drought_features,
            baseline=_NOMINAL_STEP * (1.0 - 0.9 * sev),
            conditioned=True,
            backend=backend,
        )
    if regime == REGIME_LOOP_CLOSURE:
        # Revisited landmarks: every track anchors at the oldest frame
        # and is observed from all later ones; the window suddenly
        # carries far more observations than the nominal shape.
        return _structured_window(
            seed,
            num_keyframes,
            int(round(num_features * (1.0 + sev))),
            step=_NOMINAL_STEP,
            axis=0,
            rot_noise=0.03,
            bearing_spread=(0.4, 0.3),
            depth_range=(2.5, 9.0),
            anchor_origin=True,
            track_length=None,
            backend=backend,
            huber_delta=huber_delta,
        )
    if regime == REGIME_AGGRESSIVE:
        # Drone dynamics: large inter-keyframe rotations; tracks break
        # after a single follow-up observation.
        return _structured_window(
            seed,
            num_keyframes,
            num_features,
            step=_NOMINAL_STEP,
            axis=0,
            rot_noise=0.03 + 0.27 * sev,
            bearing_spread=(0.4, 0.3),
            depth_range=(2.5, 9.0),
            anchor_origin=False,
            track_length=1,
            backend=backend,
            huber_delta=huber_delta,
        )
    # Highway: fast motion along the optical axis toward distant,
    # low-parallax features clustered near the focus of expansion.
    return _structured_window(
        seed,
        num_keyframes,
        num_features,
        step=1.2 + 0.8 * sev,
        axis=2,
        rot_noise=0.005,
        bearing_spread=(0.1, 0.08),
        depth_range=(25.0, 80.0),
        anchor_origin=False,
        track_length=None,
        backend=backend,
        huber_delta=huber_delta,
    )


# ----------------------------------------------------------------------
# Stats-series lowering (the cycle-trace / latency-model path)
# ----------------------------------------------------------------------

def make_scenario_stats_series(
    scenario: str | ScenarioSpec,
    seed: int,
    num_windows: int = 16,
    max_features: int = 200,
    max_iterations: int = 6,
) -> list[tuple[WindowStats, int]]:
    """A ``(WindowStats, iterations)`` series with the regime's shape.

    Tunnel decays the feature count toward zero across the series; loop
    closure holds a moderate load with periodic observation spikes;
    aggressive keeps tracks short (low ``No``, high marginalization);
    highway keeps distant tracks alive (high ``No``). Mixtures switch
    regime per window, which is exactly the irregular load the runtime
    controller exists for.
    """
    spec = resolve_scenario(scenario)
    rng = rng_from_seed(split_seed(spec.seed, f"stats:{seed}"))
    horizon = max(num_windows - 1, 1)
    series: list[tuple[WindowStats, int]] = []
    for index in range(num_windows):
        regime = spec.regime_at(index)
        sev = spec.severity
        if regime == REGIME_TUNNEL:
            # Quadratic decay to a near-zero floor by the last window.
            fraction = max(0.02, (1.0 - index / horizon) ** 2) * (1.0 - 0.4 * sev)
            features = max(1, int(round(max_features * fraction * rng.uniform(0.6, 1.0))))
            keyframes = int(rng.integers(2, 7))
            avg_obs = float(rng.uniform(1.0, min(2.5, keyframes)))
            marginalized = int(rng.integers(0, max(features // 6, 1) + 1))
        elif regime == REGIME_LOOP_CLOSURE:
            keyframes = int(rng.integers(8, 13))
            spike = index % 4 == 3
            scale = rng.uniform(0.85, 1.0) if spike else rng.uniform(0.25, 0.45)
            features = max(1, int(round(max_features * scale)))
            avg_obs = float(
                rng.uniform(6.0, 8.0) if spike else rng.uniform(2.0, 4.0)
            )
            marginalized = int(rng.integers(0, max(features // 4, 1) + 1))
        elif regime == REGIME_AGGRESSIVE:
            features = max(1, int(round(max_features * rng.uniform(0.2, 0.6))))
            keyframes = int(rng.integers(4, 9))
            avg_obs = float(rng.uniform(2.0, 3.0))
            marginalized = int(rng.integers(features // 4, max(features // 2, 1) + 1))
        elif regime == REGIME_HIGHWAY:
            features = max(1, int(round(max_features * rng.uniform(0.5, 0.9))))
            keyframes = int(rng.integers(6, 11))
            avg_obs = float(rng.uniform(4.0, min(8.0, keyframes)))
            marginalized = int(rng.integers(0, max(features // 8, 1) + 1))
        else:  # nominal
            features = max(1, int(round(max_features * rng.uniform(0.3, 0.8))))
            keyframes = int(rng.integers(2, 13))
            avg_obs = float(rng.uniform(2.0, min(8.0, keyframes)))
            marginalized = int(rng.integers(0, max(features // 4, 1) + 1))
        stats = WindowStats(
            num_features=features,
            avg_observations=avg_obs,
            num_keyframes=keyframes,
            num_marginalized=min(marginalized, features),
            num_observations=int(round(avg_obs * features)),
        )
        series.append((stats, int(rng.integers(1, max_iterations + 1))))
    return series


# ----------------------------------------------------------------------
# Sequence-config lowering (the serving tier)
# ----------------------------------------------------------------------

def scenario_sequence_config(
    scenario: str | ScenarioSpec,
    session_id: int,
    duration: float = 3.0,
) -> SequenceConfig:
    """The synthetic recording backing one scenario-tagged serve session.

    Each regime tunes the sequence synthesizer toward its failure shape:
    tunnel starves the landmark field (density floor near zero), loop
    closure densifies it with near-immortal tracks, aggressive scales up
    the drone dynamics, highway drives a fast low-curvature car past a
    sparse distant field. Per-session seeds are split from the spec
    seed, so a fleet of sessions explores the regime rather than
    replaying one recording.
    """
    spec = resolve_scenario(scenario)
    regime = spec.regime_at(int(session_id))
    sev = spec.severity
    seed = split_seed(spec.seed, f"sequence:{regime}:{session_id}")
    name = f"scn-{regime}-{session_id}"
    if regime == REGIME_TUNNEL:
        return SequenceConfig(
            name=name,
            kind="drone",
            seed=seed,
            duration=duration,
            landmark_count=900,
            density_period=max(2.0 * duration, 4.0),
            density_floor=max(0.02, 0.15 * (1.0 - sev)),
            motion_scale=0.8,
            tracker=TrackerConfig(max_features=60, drop_probability=0.35),
        )
    if regime == REGIME_LOOP_CLOSURE:
        return SequenceConfig(
            name=name,
            kind="car",
            seed=seed,
            duration=duration,
            imu_rate=100.0,
            landmark_count=24000,
            density_period=30.0,
            density_floor=0.3,
            motion_scale=0.9,
            tracker=TrackerConfig(max_features=360, drop_probability=0.01),
        )
    if regime == REGIME_AGGRESSIVE:
        return SequenceConfig(
            name=name,
            kind="drone",
            seed=seed,
            duration=duration,
            landmark_count=2500,
            density_period=25.0,
            motion_scale=1.0 + 0.8 * sev,
            tracker=TrackerConfig(max_features=150, drop_probability=0.3),
        )
    if regime == REGIME_HIGHWAY:
        return SequenceConfig(
            name=name,
            kind="car",
            seed=seed,
            duration=duration,
            imu_rate=100.0,
            landmark_count=12000,
            density_period=60.0,
            density_floor=0.4,
            motion_scale=0.25,
            tracker=TrackerConfig(max_features=260, drop_probability=0.03),
        )
    return SequenceConfig(name=name, kind="drone", seed=seed, duration=duration)
