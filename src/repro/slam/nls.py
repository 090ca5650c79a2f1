"""The Levenberg-Marquardt NLS solver (Sec. 3.1, "NLS Solver" phase).

Classic LM with a multiplicative damping schedule: each iteration
linearizes the window problem, solves the damped arrow system through
the D-type Schur path, and accepts the step only if the true cost
decreased. The iteration count is externally capped — that cap is the
``Iter`` knob of Equ. 13 the run-time system tunes (Sec. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.errors import SolverError
from repro.linalg.plan import default_plan_cache
from repro.slam.problem import WindowProblem
from repro.utils.validation import check_positive_int

# The damping schedule and stopping rule, shared with the dense
# reference solver (repro.baselines.ceres).
INITIAL_DAMPING = 1e-4  # starting LM damping mu
DAMPING_UP = 10.0  # multiplier after a rejected step or a failed solve
DAMPING_DOWN = 0.3  # multiplier after an accepted step
COST_TOLERANCE = 1e-6  # stop once the relative cost decrease falls below
STEP_TOLERANCE = 1e-8  # stop once the step's infinity-norm falls below


@dataclass(frozen=True)
class LMConfig:
    """Levenberg-Marquardt tuning.

    Attributes:
        max_iterations: the ``Iter`` cap (paper default: at most 6).
    """

    max_iterations: int = 6

    def __post_init__(self) -> None:
        check_positive_int("max_iterations", self.max_iterations)


@dataclass
class StageTimings:
    """Wall-clock seconds spent in each estimator pipeline stage.

    Mirrors the accelerator's pipeline phases on the software side;
    :func:`levenberg_marquardt` fills one instance per window and
    :class:`~repro.slam.estimator.RunResult` aggregates them so backend
    speedups are measurable end to end.

    Attributes:
        linearize_s: residual/Jacobian evaluation (VJac + IJac work).
        assemble_s: scatter-accumulation of the arrow system blocks.
        solve_s: Schur elimination, Cholesky and back-substitution.
        update_s: state retraction and cost (re-)evaluation.
        schur_s / chol_s / backsub_s: the SolverPlan's phase split of
            ``solve_s`` — measured inside the solve interval, so they
            are excluded from :attr:`total_s`.
    """

    linearize_s: float = 0.0
    assemble_s: float = 0.0
    solve_s: float = 0.0
    update_s: float = 0.0
    schur_s: float = 0.0
    chol_s: float = 0.0
    backsub_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.linearize_s + self.assemble_s + self.solve_s + self.update_s

    def accumulate(self, other: "StageTimings") -> None:
        """Fold another breakdown into this one (in place)."""
        self.linearize_s += other.linearize_s
        self.assemble_s += other.assemble_s
        self.solve_s += other.solve_s
        self.update_s += other.update_s
        self.schur_s += other.schur_s
        self.chol_s += other.chol_s
        self.backsub_s += other.backsub_s

    def as_dict(self) -> dict[str, float]:
        return {
            "linearize_s": self.linearize_s,
            "assemble_s": self.assemble_s,
            "solve_s": self.solve_s,
            "update_s": self.update_s,
            "schur_s": self.schur_s,
            "chol_s": self.chol_s,
            "backsub_s": self.backsub_s,
            "total_s": self.total_s,
        }


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
    # Per-stage wall-clock breakdown summed over all iterations.
    timings: StageTimings = field(default_factory=StageTimings)


def levenberg_marquardt(
    problem: WindowProblem, config: LMConfig | None = None
) -> LMResult:
    """Minimize the window's MAP objective with LM.

    Returns the optimized problem; the input problem is not mutated.
    ``LMResult.timings`` sums the wall-clock time of every stage: the
    initial cost and each step-and-cost count as update, each solve
    (failed ones included) as solve, and the linearize/assemble and
    Schur/Cholesky/back-substitution splits are the ones the linear
    system build and the solver plan measure.
    """
    config = config or LMConfig()
    damping = INITIAL_DAMPING
    timings = StageTimings()
    tic = perf_counter()
    cost = problem.cost()
    timings.update_s += perf_counter() - tic
    result = LMResult(
        problem=problem,
        initial_cost=cost,
        final_cost=cost,
        iterations=0,
        accepted_steps=0,
        cost_history=[cost],
        timings=timings,
    )

    plan = None  # built from the first system's structure, reused after
    for _ in range(config.max_iterations):
        system = problem.build_linear_system()
        timings.linearize_s += system.linearize_seconds
        timings.assemble_s += system.assemble_seconds
        result.iterations += 1
        if plan is None or not plan.matches(system.num_features, system.b_y.shape[0]):
            # The process-wide cache makes this a hit whenever any prior
            # window (on this thread) had the same width.
            plan = default_plan_cache().get(system.num_features, system.b_y.shape[0])
        tic = perf_counter()
        try:
            # copy=False: the arena views are consumed by stepped()
            # below, before the next execute on this plan.
            d_lambda, d_state = system.solve(damping=damping, plan=plan, copy=False)
            solved = True
        except SolverError:
            solved = False
        timings.solve_s += perf_counter() - tic
        if not solved:
            damping *= DAMPING_UP
            result.cost_history.append(cost)
            continue
        stats = plan.last_stats
        timings.schur_s += stats.schur_seconds
        timings.chol_s += stats.chol_seconds
        timings.backsub_s += stats.backsub_seconds

        tic = perf_counter()
        candidate = problem.stepped(d_lambda, d_state, system)
        candidate_cost = candidate.cost()
        timings.update_s += perf_counter() - tic
        if np.isfinite(candidate_cost) and candidate_cost < cost:
            relative_drop = (cost - candidate_cost) / max(cost, 1e-12)
            step_norm = max(
                np.abs(d_state).max(initial=0.0), np.abs(d_lambda).max(initial=0.0)
            )
            problem = candidate
            cost = candidate_cost
            damping = max(damping * DAMPING_DOWN, 1e-12)
            result.accepted_steps += 1
            result.cost_history.append(cost)
            if relative_drop < COST_TOLERANCE or step_norm < STEP_TOLERANCE:
                result.converged = True
                break
        else:
            damping *= DAMPING_UP
            result.cost_history.append(cost)
            if damping > 1e12:
                break

    result.problem = problem
    result.final_cost = cost
    return result
