"""A ceres-style dense LM reference solver.

ceres solves the same normal equations our structured path solves, just
without exploiting the arrow structure. ``dense_lm_solve`` runs LM on a
:class:`~repro.slam.problem.WindowProblem` but solves each damped system
densely (one Cholesky over the full (a + 15b) matrix). Tests use it to
certify that the D-type Schur path is numerically equivalent to the
generic solver — the correctness contract behind every speedup claim.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.linalg.cholesky import cholesky_evaluate_update, solve_cholesky
from repro.slam.nls import (
    COST_TOLERANCE,
    DAMPING_DOWN,
    DAMPING_UP,
    INITIAL_DAMPING,
    LMConfig,
    LMResult,
)
from repro.slam.problem import WindowProblem


def _dense_solve(system, damping: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve the full arrow system densely (no Schur elimination)."""
    full, rhs = system.dense(damping)
    factor, _ = cholesky_evaluate_update(full, jitter=1e-9)
    solution = solve_cholesky(factor, rhs)
    p = system.num_features
    return solution[:p], solution[p:]


def dense_lm_solve(problem: WindowProblem, config: LMConfig | None = None) -> LMResult:
    """Levenberg-Marquardt with a dense linear solver (ceres-style)."""
    config = config or LMConfig()
    damping = INITIAL_DAMPING
    cost = problem.cost()
    result = LMResult(
        problem=problem,
        initial_cost=cost,
        final_cost=cost,
        iterations=0,
        accepted_steps=0,
        cost_history=[cost],
    )
    for _ in range(config.max_iterations):
        system = problem.build_linear_system()
        result.iterations += 1
        try:
            d_lambda, d_state = _dense_solve(system, damping)
        except SolverError:
            damping *= DAMPING_UP
            result.cost_history.append(cost)
            continue
        candidate = problem.stepped(d_lambda, d_state, system)
        candidate_cost = candidate.cost()
        if np.isfinite(candidate_cost) and candidate_cost < cost:
            problem = candidate
            cost = candidate_cost
            damping = max(damping * DAMPING_DOWN, 1e-12)
            result.accepted_steps += 1
            result.cost_history.append(cost)
            if (result.cost_history[-2] - cost) / max(cost, 1e-12) < COST_TOLERANCE:
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
