"""The Levenberg-Marquardt NLS solver (Sec. 3.1, "NLS Solver" phase).

Classic LM with a multiplicative damping schedule: each iteration
linearizes the window problem, solves the damped arrow system through
the D-type Schur path, and accepts the step only if the true cost
decreased. The iteration count is externally capped — that cap is the
``Iter`` knob of Equ. 13 the run-time system tunes (Sec. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SolverError
from repro.linalg.plan import default_plan_cache
from repro.obs.tracer import Trace
from repro.runtime.profiler import StageTimings
from repro.slam.problem import WindowProblem
from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class LMConfig:
    """Levenberg-Marquardt tuning.

    Attributes:
        max_iterations: the ``Iter`` cap (paper default: at most 6).
        initial_damping: starting LM damping mu.
        damping_up / damping_down: multiplicative schedule on reject/accept.
        cost_tolerance: relative cost decrease below which we stop early.
        step_tolerance: infinity-norm of the state step below which we stop.
    """

    max_iterations: int = 6
    initial_damping: float = 1e-4
    damping_up: float = 10.0
    damping_down: float = 0.3
    cost_tolerance: float = 1e-6
    step_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        check_positive_int("max_iterations", self.max_iterations)
        check_positive("initial_damping", self.initial_damping)
        if self.damping_up <= 1.0 or not 0.0 < self.damping_down < 1.0:
            raise ValueError("need damping_up > 1 and 0 < damping_down < 1")


@dataclass
class LMResult:
    """Outcome of one window optimization."""

    problem: WindowProblem  # the optimized problem (updated estimates)
    initial_cost: float
    final_cost: float
    iterations: int  # linearizations performed (accepted + rejected)
    accepted_steps: int
    cost_history: list[float] = field(default_factory=list)
    converged: bool = False
    # Per-stage wall-clock breakdown summed over all iterations — a
    # StageTimings view computed from the window's span trace.
    timings: StageTimings = field(default_factory=StageTimings)


def levenberg_marquardt(
    problem: WindowProblem,
    config: LMConfig | None = None,
    trace: Trace | None = None,
    span_attributes: dict | None = None,
) -> LMResult:
    """Minimize the window's MAP objective with LM.

    Returns the optimized problem; the input problem is not mutated.

    Every stage (linearize / assemble / solve / update) is recorded as a
    span on a private per-window trace; ``LMResult.timings`` is the
    :class:`StageTimings` view over those spans. When ``trace`` is
    supplied, the window's spans are folded into it under one ``window``
    parent span (carrying ``span_attributes``) in a single atomic
    append, so concurrent windows from different threads never
    interleave.
    """
    config = config or LMConfig()
    damping = config.initial_damping
    window_trace = Trace(clock="wall", name="lm-window")
    with window_trace.span("update", category="nls"):
        cost = problem.cost()
    result = LMResult(
        problem=problem,
        initial_cost=cost,
        final_cost=cost,
        iterations=0,
        accepted_steps=0,
        cost_history=[cost],
    )

    plan = None  # built from the first system's structure, reused after
    for _ in range(config.max_iterations):
        system = problem.build_linear_system()
        # The build measures its own linearize/assemble split; record
        # the two phases as already-measured spans.
        window_trace.add_measured(
            "linearize", category="nls", duration_s=system.linearize_seconds
        )
        window_trace.add_measured(
            "assemble", category="nls", duration_s=system.assemble_seconds
        )
        result.iterations += 1
        if plan is None or not plan.matches(system.num_features, system.b_y.shape[0]):
            # The process-wide cache makes this a hit whenever any prior
            # window (on this thread) had the same width.
            plan = default_plan_cache().get(system.num_features, system.b_y.shape[0])
        solved = False
        with window_trace.span("solve", category="nls", damping=damping):
            try:
                # copy=False: the arena views are consumed by stepped()
                # below, before the next execute on this plan.
                d_lambda, d_state = system.solve(
                    damping=damping, plan=plan, copy=False
                )
                solved = True
            except SolverError:
                pass
        if solved:
            # Surface the plan's phase split as already-measured child
            # stages next to the enclosing solve span. StageTimings
            # routes these to dedicated fields (never into total_s).
            stats = plan.last_stats
            window_trace.add_measured(
                "schur", category="nls", duration_s=stats.schur_seconds
            )
            window_trace.add_measured(
                "chol", category="nls", duration_s=stats.chol_seconds,
                jitter_applied=stats.jitter_applied,
            )
            window_trace.add_measured(
                "backsub", category="nls", duration_s=stats.backsub_seconds
            )
        else:
            damping *= config.damping_up
            result.cost_history.append(cost)
            continue

        with window_trace.span("update", category="nls"):
            candidate = problem.stepped(d_lambda, d_state, system)
            candidate_cost = candidate.cost()
        if np.isfinite(candidate_cost) and candidate_cost < cost:
            relative_drop = (cost - candidate_cost) / max(cost, 1e-12)
            step_norm = max(
                np.abs(d_state).max(initial=0.0), np.abs(d_lambda).max(initial=0.0)
            )
            problem = candidate
            cost = candidate_cost
            damping = max(damping * config.damping_down, 1e-12)
            result.accepted_steps += 1
            result.cost_history.append(cost)
            if relative_drop < config.cost_tolerance or step_norm < config.step_tolerance:
                result.converged = True
                break
        else:
            damping *= config.damping_up
            result.cost_history.append(cost)
            if damping > 1e12:
                break

    result.problem = problem
    result.final_cost = cost
    result.timings = StageTimings.from_trace(window_trace)
    if trace is not None:
        attributes = dict(span_attributes or {})
        attributes.update(
            iterations=result.iterations, converged=result.converged
        )
        trace.absorb(
            window_trace, name="window", category="nls", attributes=attributes
        )
    return result
