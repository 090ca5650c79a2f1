"""Offline profiling: the feature-count -> Iter lookup table (Sec. 6.2).

The paper's mechanism: profile datasets of interest offline, measure how
many NLS iterations each feature-count regime needs to sustain the
target accuracy, and memoize the mapping. Fewer tracked features mean
less information per window, so more iterations are required to hold
accuracy (Figs. 11-12); the table is therefore monotone non-increasing
in the feature count, capped at 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.slam.estimator import EstimatorConfig, SlidingWindowEstimator
from repro.slam.nls import LMConfig, levenberg_marquardt
from repro.slam.problem import MAX_INV_DEPTH, MIN_INV_DEPTH, WindowProblem

MAX_ITERATIONS = 6  # the paper's cap: >6 iterations buys ~no accuracy


@dataclass(frozen=True)
class IterationTable:
    """Feature-count thresholds -> iteration counts.

    ``thresholds`` are ascending feature counts; a window whose feature
    count is below ``thresholds[i]`` (and >= the previous threshold)
    uses ``iterations[i]``; counts >= the last threshold use
    ``iterations[-1]``.
    """

    thresholds: tuple[int, ...] = (25, 45, 70, 110, 180)
    iterations: tuple[int, ...] = (6, 5, 4, 3, 2, 2)

    def __post_init__(self) -> None:
        if len(self.iterations) != len(self.thresholds) + 1:
            raise ConfigurationError("need len(iterations) == len(thresholds) + 1")
        if list(self.thresholds) != sorted(set(self.thresholds)):
            raise ConfigurationError("thresholds must be strictly ascending")
        if any(not 1 <= it <= MAX_ITERATIONS for it in self.iterations):
            raise ConfigurationError(f"iterations must lie in [1, {MAX_ITERATIONS}]")
        if any(b > a for a, b in zip(self.iterations, self.iterations[1:])):
            raise ConfigurationError(
                "iterations must be non-increasing in the feature count"
            )

    def lookup(self, feature_count: int) -> int:
        """Iterations needed for a window with this many features."""
        if feature_count < 0:
            raise ConfigurationError("feature_count must be non-negative")
        index = int(np.searchsorted(np.asarray(self.thresholds), feature_count, side="right"))
        return self.iterations[index]


def perturb_window_problem(problem, rng: np.random.Generator, scale: float = 1.0):
    """Reset a window problem to front-end-grade initialization quality.

    The live estimator warm-starts every window from the previous
    window's solution and converges in one or two LM steps, which hides
    the iteration demand the run-time knob must provision for: the
    demand appears exactly when the linearization point is front-end
    grade (dead-reckoned poses, freshly triangulated depths) -- after
    tracking loss, aggressive motion, or relocalization. The profiler
    therefore perturbs each probed window back to that quality: pose
    error grows along the window like dead-reckoning drift, and inverse
    depths get triangulation-grade lognormal noise.
    """
    states = dict(problem.states)
    for j, fid in enumerate(sorted(states)):
        if j < 1:
            continue  # the oldest frame is pinned by the prior
        delta = np.zeros(15)
        delta[0:3] = rng.normal(scale=scale * 0.05 * j, size=3)
        delta[3:6] = rng.normal(scale=scale * 0.008 * j, size=3)
        delta[6:9] = rng.normal(scale=scale * 0.05, size=3)
        states[fid] = states[fid].retract(delta)
    depths = {
        fid: float(
            np.clip(
                value * np.exp(rng.normal(scale=scale * 0.3)),
                MIN_INV_DEPTH,
                MAX_INV_DEPTH,
            )
        )
        for fid, value in problem.inv_depths.items()
    }
    return WindowProblem(
        problem.camera,
        states,
        depths,
        problem.visual_factors,
        problem.imu_factors,
        problem.priors,
        huber_delta=problem.huber_delta,
        backend=problem.backend,
    )


def profile_accuracy_vs_iterations(
    sequence,
    iteration_caps: tuple[int, ...] = (1, 2, 3, 4, 6),
    window_size: int = 8,
    max_keyframes: int | None = None,
    probe_stride: int = 3,
    seed: int = 0,
    perturb_scale: float = 1.0,
) -> dict[int, list[tuple[int, float]]]:
    """Measure per-window convergence against the iteration cap.

    Runs the estimator once, captures every ``probe_stride``-th window
    problem, resets each to front-end initialization quality
    (:func:`perturb_window_problem`), and optimizes independently at
    each cap. Returns cap -> [(feature_count, window_relative_error),
    ...] -- the offline profiling data of Sec. 6.2.

    ``perturb_scale`` dials the reset: 1.0 is front-end grade (the
    table-building default -- provision for tracking loss), 0.0 keeps
    the warm-started linearization point the live estimator actually
    sees, which is what a serving-time policy must price.
    """
    probes = []

    def probe(problem, frame_id):
        if frame_id % probe_stride == 0 and frame_id > window_size:
            probes.append((problem, frame_id))

    estimator = SlidingWindowEstimator(
        EstimatorConfig(window_size=window_size, window_probe=probe)
    )
    estimator.run(sequence, max_keyframes=max_keyframes)

    rng = np.random.default_rng(seed)
    profile: dict[int, list[tuple[int, float]]] = {cap: [] for cap in iteration_caps}
    for problem, frame_id in probes:
        perturbed = perturb_window_problem(problem, rng, scale=perturb_scale)
        truth = sequence.true_states[frame_id]
        oldest = min(perturbed.states)
        d_true = truth.position - sequence.true_states[oldest].position
        for cap in iteration_caps:
            result = levenberg_marquardt(perturbed, LMConfig(max_iterations=cap))
            d_est = (
                result.problem.states[frame_id].position
                - result.problem.states[oldest].position
            )
            error = float(np.linalg.norm(d_est - d_true))
            profile[cap].append((len(problem.inv_depths), error))
    return profile


def build_iteration_table(
    profile: dict[int, list[tuple[int, float]]],
    accuracy_target: float | None = None,
    bucket_edges: tuple[int, ...] = (40, 80, 130, 190, 260),
) -> IterationTable:
    """Construct the lookup table from profiling data.

    For each feature-count bucket, picks the smallest iteration cap
    whose mean relative error stays within ``accuracy_target`` (default:
    the error the maximum cap achieves, plus 10% slack — "sustain the
    accuracy of the full-effort configuration").
    """
    if not profile:
        raise ConfigurationError("profile must not be empty")
    caps = sorted(profile)
    max_cap = caps[-1]

    edges = (0,) + tuple(bucket_edges) + (10**9,)
    iterations: list[int] = []
    for low, high in zip(edges[:-1], edges[1:]):
        reference = _bucket_error(profile[max_cap], low, high)
        target = (
            accuracy_target
            if accuracy_target is not None
            else (reference * 1.10 if reference is not None else None)
        )
        chosen = max_cap
        if target is not None:
            for cap in caps:
                error = _bucket_error(profile[cap], low, high)
                if error is not None and error <= target:
                    chosen = cap
                    break
        iterations.append(min(chosen, MAX_ITERATIONS))

    # Enforce monotonicity (more features never needs more iterations):
    # sweep from the sparse end and clamp.
    for i in range(1, len(iterations)):
        iterations[i] = min(iterations[i], iterations[i - 1])
    return IterationTable(thresholds=tuple(bucket_edges), iterations=tuple(iterations))


def _bucket_error(
    samples: list[tuple[int, float]], low: int, high: int
) -> float | None:
    errors = [err for count, err in samples if low <= count < high]
    return float(np.mean(errors)) if errors else None
