"""Functional accelerator execution: numbers *and* cycles together.

The timing simulators count cycles; this module executes a real window's
NLS iteration along the exact hardware data path — VJac/IJac
linearization, A/b preparation, the D-type Schur elimination, the
Evaluate/Update Cholesky (in functional mode, factoring the actual
matrix while counting its rounds), forward/backward substitution, and
landmark back-substitution — and returns both the numerical solution and
the cycle cost. Tests assert the solution is bit-level identical to the
software solver's, which is the correctness contract behind every
speedup claim: the accelerator computes the same update the algorithm
specifies.

Since the SolverPlan refactor the *numbers* come from the very same
:class:`repro.linalg.plan.SolverPlan` the software solver executes —
there is one structured-solve implementation in the codebase, not a
hardware copy of it — while the Fig. 10 Evaluate/Update timeline still
factors the (intact) reduced matrix the plan produced to obtain the
round-level cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.config import HardwareConfig
from repro.hw.fpga import FpgaPlatform, ZC706
from repro.hw.latency import (
    backsub_latency,
    dschur_feature_latency,
    jacobian_feature_latency,
)
from repro.hw.sim.cholesky_pipe import simulate_cholesky
from repro.linalg.plan import SolverPlan, default_plan_cache
from repro.slam.problem import WindowProblem


@dataclass
class FunctionalExecution:
    """One NLS iteration executed on the modeled hardware."""

    d_lambda: np.ndarray
    d_state: np.ndarray
    cycles: float
    seconds: float
    cholesky_rounds: int


def run_iteration_functional(
    problem: WindowProblem,
    config: HardwareConfig,
    damping: float = 0.0,
    platform: FpgaPlatform = ZC706,
    plan: SolverPlan | None = None,
) -> FunctionalExecution:
    """Execute one NLS iteration along the accelerator data path.

    The numerical result matches
    :meth:`repro.slam.problem.LinearSystem.solve` exactly — both paths
    execute the *same* :class:`~repro.linalg.plan.SolverPlan` object (or
    the shared cache's plan for the window's width); the hardware path
    additionally runs the Cholesky through the Fig. 10 Evaluate/Update
    timeline to obtain its true round-level cycle count.

    Args:
        plan: optionally the exact plan the serving tier / software
            solver holds; when None the process-wide plan cache supplies
            the one for the window's width.
    """
    system = problem.build_linear_system()
    stats_features = system.num_features

    # Feature phase: VJac production pipelined with the D-type Schur
    # (Equ. 14's max term), per feature point.
    avg_obs = (
        sum(1 for _ in problem.visual_factors) / max(stats_features, 1)
    )
    per_feature = max(
        jacobian_feature_latency(avg_obs),
        dschur_feature_latency(avg_obs, config.nd),
    )
    cycles = stats_features * per_feature

    # The actual elimination, on the actual numbers — through the shared
    # solve plan (copy=True: the timeline below reuses the plan arenas'
    # reduced matrix, and callers keep the result).
    if plan is None:
        plan = default_plan_cache().get(stats_features, system.b_y.shape[0])
    d_lambda, d_state = system.solve(damping=damping, plan=plan, copy=True)

    # Functional Cholesky: factor the reduced matrix the plan actually
    # solved (including any failure-triggered jitter) while the
    # Evaluate/Update timeline counts its cycles. ``plan.reduced`` is
    # left intact by execute() precisely for this.
    factored = plan.reduced
    if plan.last_stats.jitter_applied:
        factored = plan.reduced.copy()
        factored.flat[:: factored.shape[0] + 1] += plan.last_stats.jitter
    timeline = simulate_cholesky(s=config.s, matrix=factored)
    cycles += timeline.total_cycles

    # Back-substitution block (fixed-function).
    from repro.data.stats import WindowStats

    pseudo_stats = WindowStats(
        num_features=max(stats_features, 1),
        avg_observations=avg_obs,
        num_keyframes=max(system.num_frames, 1),
        num_marginalized=0,
    )
    cycles += backsub_latency(pseudo_stats)

    return FunctionalExecution(
        d_lambda=d_lambda,
        d_state=d_state,
        cycles=cycles,
        seconds=cycles / platform.frequency_hz,
        cholesky_rounds=timeline.num_rounds,
    )
