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

The *numbers* come from the very same :class:`repro.linalg.plan.SolverPlan`
the software solver executes — there is one structured-solve
implementation in the codebase, not a hardware copy of it — while the
Fig. 10 Evaluate/Update timeline factors the (intact) reduced matrix the
plan produced to obtain the round-level cycle count.

The cycles are :func:`iteration_cycles`, a function of the window's
counts: a round's update work depends only on the reduced system's
size, so the serving tier's ``--fidelity functional`` prices a window
from its :class:`~repro.data.stats.WindowStats` alone and gets the
cycles :func:`run_iteration_functional` counts on the factored matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.stats import WindowStats
from repro.hw.config import HardwareConfig
from repro.hw.fpga import FpgaPlatform, ZC706
from repro.hw.latency import (
    backsub_latency,
    dschur_feature_latency,
    jacobian_feature_latency,
)
from repro.hw.sim.cholesky_pipe import simulate_cholesky
from repro.linalg.plan import default_plan_cache
from repro.slam.problem import WindowProblem


@dataclass
class FunctionalExecution:
    """One NLS iteration executed on the modeled hardware."""

    d_lambda: np.ndarray
    d_state: np.ndarray
    cycles: float
    seconds: float
    cholesky_rounds: int


def iteration_cycles(
    stats: WindowStats,
    config: HardwareConfig,
    matrix: np.ndarray | None = None,
) -> tuple[float, int]:
    """One NLS iteration's cycles on ``config`` and its Cholesky rounds.

    The feature phase pipelines VJac production with the D-type Schur
    (Equ. 14's max term) over ``stats.num_features`` points; the
    ``15 b`` reduced system then runs through the Fig. 10
    Evaluate/Update timeline, followed by back-substitution. The
    timeline runs in shape mode, or in functional mode factoring
    ``matrix`` (the reduced system) when given; both count the same
    cycles, because a round's update work depends only on the size.
    """
    per_feature = max(
        jacobian_feature_latency(stats.avg_observations),
        dschur_feature_latency(stats.avg_observations, config.nd),
    )
    q = stats.state_size * max(stats.num_keyframes, 1)
    timeline = simulate_cholesky(q, s=config.s, matrix=matrix)
    cycles = (
        stats.num_features * per_feature
        + timeline.total_cycles
        + backsub_latency(stats)
    )
    return cycles, timeline.num_rounds


def run_iteration_functional(
    problem: WindowProblem,
    config: HardwareConfig,
    damping: float = 0.0,
    platform: FpgaPlatform = ZC706,
) -> FunctionalExecution:
    """Execute one NLS iteration along the accelerator data path.

    The numerical result matches
    :meth:`repro.slam.problem.LinearSystem.solve` exactly — both paths
    execute the shared cache's :class:`~repro.linalg.plan.SolverPlan`
    for the window's width; the hardware path additionally runs the
    Cholesky through the Fig. 10 Evaluate/Update timeline
    (:func:`iteration_cycles` in functional mode) to obtain its
    round-level cycle count.
    """
    system = problem.build_linear_system()

    # The actual elimination, on the actual numbers — through the shared
    # solve plan (copy=True: the timeline below reuses the plan arenas'
    # reduced matrix, and callers keep the result).
    plan = default_plan_cache().get(system.num_features, system.b_y.shape[0])
    d_lambda, d_state = system.solve(damping=damping, plan=plan, copy=True)

    # Functional Cholesky: factor the reduced matrix the plan actually
    # solved (including any failure-triggered jitter) while the
    # Evaluate/Update timeline counts its cycles. ``plan.reduced`` is
    # left intact by execute() precisely for this.
    factored = plan.reduced
    if plan.last_stats.jitter_applied:
        factored = plan.reduced.copy()
        factored.flat[:: factored.shape[0] + 1] += plan.last_stats.jitter
    stats = WindowStats(
        num_features=system.num_features,
        avg_observations=len(problem.visual_factors) / max(system.num_features, 1),
        num_keyframes=system.num_frames,
        num_marginalized=0,
    )
    cycles, rounds = iteration_cycles(stats, config, matrix=factored)

    return FunctionalExecution(
        d_lambda=d_lambda,
        d_state=d_state,
        cycles=cycles,
        seconds=cycles / platform.frequency_hz,
        cholesky_rounds=rounds,
    )
