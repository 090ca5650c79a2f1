"""The sliding-window estimator: the full host-side SLAM loop.

Consumes a :class:`repro.data.sequences.Sequence` keyframe by keyframe,
maintaining the persistent factor graph: IMU preintegration factors
between consecutive keyframes, inverse-depth visual factors anchored at
each feature's first observation, and the marginalization prior. Each
new keyframe triggers one window optimization (the work the accelerator
executes) followed by marginalization once the window is full.

The per-window NLS iteration cap can be supplied by a policy callable —
this is the hook the run-time system of Sec. 6 uses to trade iterations
(and therefore accelerator energy) against accuracy.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.data.sequences import Sequence
from repro.data.stats import WindowStats
from repro.errors import DataError
from repro.geometry.navstate import NavState
from repro.geometry.se3 import SE3
from repro.imu.preintegration import GRAVITY, ImuPreintegration
from repro.slam.marginalization import marginalize_window
from repro.slam.nls import LMConfig, StageTimings, levenberg_marquardt
from repro.slam.problem import MAX_INV_DEPTH, MIN_INV_DEPTH, WindowProblem
from repro.slam.residuals import (
    ImuFactor,
    PriorFactor,
    VisualFactor,
    make_pose_anchor_prior,
)
from repro.utils.rng import rng_from_seed, split_seed

DEFAULT_INV_DEPTH = 0.2  # 5 m, the fallback when triangulation fails


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator tuning.

    Attributes:
        window_size: keyframes kept in the window (the paper's ``b``).
        lm: NLS solver configuration; ``lm.max_iterations`` is the
            static ``Iter`` used when no policy is installed.
        iteration_policy: optional callable mapping the current tracked
            feature count to an iteration cap (the Sec. 6 run-time knob).
        window_probe: optional callable invoked with (problem, frame_id)
            just before each window optimization — the hook the offline
            profiler uses to measure per-window convergence behaviour
            (accuracy after k iterations from the dead-reckoned
            initialization) without disturbing the run.
        bootstrap_position_sigma / bootstrap_rotation_sigma: noise
            injected into the first keyframe's initialization, emulating
            an imperfect initializer.
        seed: RNG seed for the bootstrap noise.
    """

    window_size: int = 10
    lm: LMConfig = field(default_factory=LMConfig)
    iteration_policy: Callable[[int], int] | None = None
    window_probe: Callable[..., None] | None = None
    huber_delta: float | None = None  # robust kernel on visual residuals [px]
    # Linearization backend for every window problem: "batched" (SoA
    # kernels, the default) or "loop" (per-factor reference oracle).
    backend: str = "batched"
    # After each window optimization, permanently drop visual factors
    # whose residual exceeds this many pixels (chi-square-style gating;
    # None disables). Outlier tracks then cannot poison later windows.
    outlier_gate_px: float | None = None
    bootstrap_position_sigma: float = 0.02
    bootstrap_rotation_sigma: float = 0.01
    seed: int = 0


@dataclass
class _FeatureRecord:
    """Registry entry for one active (non-marginalized) feature."""

    feature_id: int
    anchor: int
    bearing: np.ndarray  # anchor-frame un-normalized ray
    inv_depth: float | None = None  # set at second observation


@dataclass
class WindowResult:
    """Per-window record used by every experiment."""

    window_index: int
    frame_ids: list[int]
    stats: WindowStats
    iterations: int
    accepted_steps: int
    initial_cost: float
    final_cost: float
    newest_position_error: float  # |p_est - p_true| of the newest keyframe
    relative_error: float  # window-relative displacement error
    # Per-stage wall-clock breakdown of this window's optimization.
    timings: StageTimings = field(default_factory=StageTimings)


@dataclass
class RunResult:
    """Aggregate output of a full sequence run."""

    windows: list[WindowResult] = field(default_factory=list)
    estimated_positions: list[np.ndarray] = field(default_factory=list)
    true_positions: list[np.ndarray] = field(default_factory=list)
    feature_counts: list[int] = field(default_factory=list)
    iterations_used: list[int] = field(default_factory=list)

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    def timing_summary(self) -> dict[str, float]:
        """Per-stage wall-clock totals (seconds) across all windows.

        Keys: ``linearize_s`` / ``assemble_s`` / ``solve_s`` /
        ``update_s`` / ``total_s`` — the stage breakdown recorded by the
        NLS solver, plus ``windows_per_second`` over the summed
        optimization time (0.0 for an empty run).
        """
        total = StageTimings()
        for window in self.windows:
            total.accumulate(window.timings)
        summary = total.as_dict()
        summary["windows_per_second"] = (
            len(self.windows) / total.total_s if total.total_s > 0 else 0.0
        )
        return summary


class SlidingWindowEstimator:
    """Runs the MAP estimator over a synthetic sequence."""

    def __init__(self, config: EstimatorConfig | None = None) -> None:
        self.config = config or EstimatorConfig()
        self._rng = rng_from_seed(split_seed(self.config.seed, "estimator"))
        self.reset()

    def reset(self) -> None:
        self.states: dict[int, NavState] = {}
        self.features: dict[int, _FeatureRecord] = {}
        self.visual_factors: list[VisualFactor] = []
        self.imu_factors: list[ImuFactor] = []
        self.priors: list[PriorFactor] = []
        self._frame_order: list[int] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, sequence: Sequence, max_keyframes: int | None = None) -> RunResult:
        """Process a sequence end to end and return per-window records."""
        result = self.start()
        limit = min(
            sequence.num_keyframes,
            max_keyframes if max_keyframes is not None else sequence.num_keyframes,
        )
        for frame_id in range(limit):
            self.step(sequence, frame_id, result)
        return result

    def start(self) -> RunResult:
        """Reset state and return a fresh :class:`RunResult` for stepping.

        The incremental counterpart of :meth:`run`: callers that feed the
        estimator window by window (the serving tier's sessions) call
        ``start`` once, then :meth:`step` for each keyframe in order.
        """
        self.reset()
        return RunResult()

    def step(
        self,
        sequence: Sequence,
        frame_id: int,
        result: RunResult,
        iteration_cap: int | None = None,
        skip_optimize: bool = False,
    ) -> WindowResult | None:
        """Ingest one keyframe and (normally) optimize its window.

        Keyframes must be stepped in order starting from 0. Returns the
        new :class:`WindowResult`, or ``None`` for the bootstrap frame
        and for shed windows (``skip_optimize=True`` ingests the
        keyframe and its observations — the dead-reckoned state still
        propagates — but skips the accelerator's optimization, which is
        the serving tier's load-shedding path). ``iteration_cap``
        overrides the config's policy/static cap for this window only.
        """
        camera = sequence.config.camera
        self._add_keyframe(sequence, frame_id)
        self._register_observations(sequence, frame_id, camera)
        window = None
        if frame_id >= 1 and not skip_optimize:
            self._optimize_and_record(
                sequence, frame_id, camera, result, cap_override=iteration_cap
            )
            window = result.windows[-1]
        if len(self._frame_order) > self.config.window_size:
            self._slide(camera)
        return window

    # ------------------------------------------------------------------
    # Keyframe lifecycle
    # ------------------------------------------------------------------

    def _add_keyframe(self, sequence: Sequence, frame_id: int) -> None:
        if frame_id == 0:
            true0 = sequence.true_states[0]
            noisy_pose = SE3(
                true0.rotation,
                true0.position + self._rng.normal(
                    scale=self.config.bootstrap_position_sigma, size=3
                ),
            ).retract(
                np.concatenate(
                    [
                        np.zeros(3),
                        self._rng.normal(
                            scale=self.config.bootstrap_rotation_sigma, size=3
                        ),
                    ]
                )
            )
            state = NavState(pose=noisy_pose, velocity=true0.velocity)
            self.states[0] = state
            self._frame_order.append(0)
            self.priors.append(make_pose_anchor_prior(0, state))
            return

        segment = sequence.imu_segments[frame_id - 1]
        if len(segment.gyro) == 0 or len(segment.accel) == 0:
            raise DataError(
                f"IMU gap: no samples between keyframes {frame_id - 1} and "
                f"{frame_id} (sequence {sequence.config.name!r})"
            )
        noise = sequence.config.imu_noise
        prev = self.states[frame_id - 1]
        pre = ImuPreintegration(
            bias_gyro_ref=prev.bias_gyro.copy(),
            bias_accel_ref=prev.bias_accel.copy(),
        )
        gyro_sigma = noise.discrete_gyro_sigma(segment.dt) if noise.gyro_noise else 1e-4
        accel_sigma = noise.discrete_accel_sigma(segment.dt) if noise.accel_noise else 1e-3
        pre.integrate_segment(
            segment.gyro, segment.accel, segment.dt, gyro_sigma, accel_sigma
        )

        # Dead-reckoning initialization of the new keyframe.
        dt = pre.dt_total
        rot_prev = prev.rotation
        position = (
            prev.position
            + prev.velocity * dt
            + 0.5 * GRAVITY * dt * dt
            + rot_prev @ pre.alpha
        )
        velocity = prev.velocity + GRAVITY * dt + rot_prev @ pre.beta
        rotation = rot_prev @ pre.gamma
        self.states[frame_id] = NavState(
            pose=SE3(rotation, position),
            velocity=velocity,
            bias_gyro=prev.bias_gyro.copy(),
            bias_accel=prev.bias_accel.copy(),
        )
        self._frame_order.append(frame_id)
        self.imu_factors.append(
            ImuFactor(frame_i=frame_id - 1, frame_j=frame_id, preintegration=pre)
        )

    def _register_observations(self, sequence: Sequence, frame_id: int, camera) -> None:
        pixel_sigma = max(sequence.config.tracker.pixel_sigma, 1e-3)
        weight = 1.0 / (pixel_sigma * pixel_sigma)
        obs = sequence.observations[frame_id]
        finite = np.isfinite(obs.pixels).all(axis=1).tolist()
        for fid, pixel, ok in zip(obs.ids.tolist(), obs.pixels, finite):
            if not ok:
                # A dead tracker output (NaN/inf pixel) constrains
                # nothing; dropping it keeps the window solvable instead
                # of poisoning every block it touches.
                continue
            record = self.features.get(fid)
            if record is None:
                bearing = np.array(
                    [
                        (pixel[0] - camera.cx) / camera.fx,
                        (pixel[1] - camera.cy) / camera.fy,
                        1.0,
                    ]
                )
                self.features[fid] = _FeatureRecord(fid, frame_id, bearing)
                continue
            if record.anchor not in self.states:
                # Anchor already left the window (feature was marginalized
                # or dropped); re-anchor at this frame.
                bearing = np.array(
                    [
                        (pixel[0] - camera.cx) / camera.fx,
                        (pixel[1] - camera.cy) / camera.fy,
                        1.0,
                    ]
                )
                self.features[fid] = _FeatureRecord(fid, frame_id, bearing)
                continue
            factor = VisualFactor(
                feature_id=fid,
                anchor=record.anchor,
                target=frame_id,
                bearing=record.bearing,
                pixel=pixel,
                weight=weight,
            )
            if record.inv_depth is None:
                record.inv_depth = self._triangulate(record, factor, camera)
            self.visual_factors.append(factor)

    def _triangulate(self, record: _FeatureRecord, factor: VisualFactor, camera) -> float:
        """Two-view midpoint triangulation for the initial inverse depth."""
        pose_h = self.states[record.anchor].pose
        pose_t = self.states[factor.target].pose
        ray_h = pose_h.rotation @ record.bearing
        bearing_t = np.array(
            [
                (factor.pixel[0] - camera.cx) / camera.fx,
                (factor.pixel[1] - camera.cy) / camera.fy,
                1.0,
            ]
        )
        ray_t = pose_t.rotation @ bearing_t
        baseline = pose_t.translation - pose_h.translation
        design = np.column_stack([ray_h, -ray_t])
        solution, *_ = np.linalg.lstsq(design, baseline, rcond=None)
        depth = float(solution[0])
        if not np.isfinite(depth) or depth <= 1.0 / MAX_INV_DEPTH:
            return DEFAULT_INV_DEPTH
        return float(np.clip(1.0 / depth, MIN_INV_DEPTH, MAX_INV_DEPTH))

    # ------------------------------------------------------------------
    # Optimization
    # ------------------------------------------------------------------

    def _active_problem(self, camera) -> WindowProblem:
        active_features = {f.feature_id for f in self.visual_factors}
        inv_depths = {}
        for fid in active_features:
            record = self.features[fid]
            inv_depths[fid] = (
                record.inv_depth if record.inv_depth is not None else DEFAULT_INV_DEPTH
            )
        return WindowProblem(
            camera=camera,
            states=dict(self.states),
            inv_depths=inv_depths,
            visual_factors=list(self.visual_factors),
            imu_factors=list(self.imu_factors),
            priors=list(self.priors),
            huber_delta=self.config.huber_delta,
            backend=self.config.backend,
        )

    def _iteration_cap(self, feature_count: int) -> int:
        if self.config.iteration_policy is not None:
            return max(1, int(self.config.iteration_policy(feature_count)))
        return self.config.lm.max_iterations

    def _optimize_and_record(
        self,
        sequence: Sequence,
        frame_id: int,
        camera,
        result: RunResult,
        cap_override: int | None = None,
    ) -> None:
        problem = self._active_problem(camera)
        if self.config.window_probe is not None:
            self.config.window_probe(problem, frame_id)
        feature_count = len(problem.inv_depths)
        cap = (
            max(1, int(cap_override))
            if cap_override is not None
            else self._iteration_cap(feature_count)
        )
        lm_result = levenberg_marquardt(problem, LMConfig(max_iterations=cap))
        optimized = lm_result.problem

        # Write the estimates back into the persistent graph.
        self.states.update(optimized.states)
        for fid, value in optimized.inv_depths.items():
            self.features[fid].inv_depth = value

        if self.config.outlier_gate_px is not None:
            self._reject_outlier_factors(optimized, self.config.outlier_gate_px)

        stats = self._window_stats()
        true_state = sequence.true_states[frame_id]
        est_position = self.states[frame_id].position
        newest_error = float(np.linalg.norm(est_position - true_state.position))

        oldest = self._frame_order[0]
        d_est = est_position - self.states[oldest].position
        d_true = true_state.position - sequence.true_states[oldest].position
        relative = float(np.linalg.norm(d_est - d_true))

        result.windows.append(
            WindowResult(
                window_index=len(result.windows),
                frame_ids=list(self._frame_order),
                stats=stats,
                iterations=lm_result.iterations,
                accepted_steps=lm_result.accepted_steps,
                initial_cost=lm_result.initial_cost,
                final_cost=lm_result.final_cost,
                newest_position_error=newest_error,
                relative_error=relative,
                timings=lm_result.timings,
            )
        )
        result.estimated_positions.append(est_position.copy())
        result.true_positions.append(true_state.position.copy())
        result.feature_counts.append(feature_count)
        result.iterations_used.append(lm_result.iterations)

    def _reject_outlier_factors(self, optimized: WindowProblem, gate_px: float) -> None:
        """Chi-square-style gating: drop factors whose post-optimization
        residual exceeds the gate (mismatched tracks)."""
        survivors = []
        for factor in self.visual_factors:
            residual = factor.residual_only(
                optimized.camera,
                optimized.states[factor.anchor],
                optimized.states[factor.target],
                optimized.inv_depths.get(factor.feature_id, DEFAULT_INV_DEPTH),
            )
            if residual is not None and float(np.linalg.norm(residual)) > gate_px:
                continue
            survivors.append(factor)
        self.visual_factors = survivors

    def _window_stats(self) -> WindowStats:
        active = {}
        for factor in self.visual_factors:
            active.setdefault(factor.feature_id, 0)
            active[factor.feature_id] += 1
        num_features = len(active)
        num_obs = sum(active.values())
        oldest = self._frame_order[0]
        num_marginalized = len(
            {f.feature_id for f in self.visual_factors if f.anchor == oldest}
        )
        return WindowStats(
            num_features=num_features,
            avg_observations=num_obs / num_features if num_features else 0.0,
            num_keyframes=len(self._frame_order),
            num_marginalized=num_marginalized,
            num_observations=num_obs,
        )

    # ------------------------------------------------------------------
    # Sliding / marginalization
    # ------------------------------------------------------------------

    def _slide(self, camera) -> None:
        oldest = self._frame_order[0]
        problem = self._active_problem(camera)
        marg = marginalize_window(problem, oldest)

        self.visual_factors = [f for f in self.visual_factors if f.anchor != oldest]
        self.imu_factors = [
            f for f in self.imu_factors if oldest not in (f.frame_i, f.frame_j)
        ]
        self.priors = [p for p in self.priors if oldest not in p.frame_ids]
        if marg.prior is not None:
            self.priors.append(marg.prior)
        # Every record anchored at the departing frame goes, marginalized
        # or not: a feature sighted once would otherwise stay forever, and
        # a later sighting re-anchors a record whose anchor left exactly
        # as it anchors a new one.
        self.features = {
            fid: record
            for fid, record in self.features.items()
            if record.anchor != oldest
        }
        self.states.pop(oldest)
        self._frame_order.pop(0)
