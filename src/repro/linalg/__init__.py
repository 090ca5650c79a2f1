"""Numerical kernels mirrored one-to-one by the hardware template.

Each function here is the software-reference semantics of a hardware
block: the Evaluate/Update Cholesky (Sec. 4.3), forward/backward
substitution (FBSub), the D-type and M-type Schur complements (Sec. 4.4),
the blocked matrix inverse of Equ. 5, and the compact S-matrix storage of
Sec. 3.3. The cycle-level simulator executes these kernels while it
counts cycles, so functional results and timing come from the same code.

:mod:`repro.linalg.plan` composes the allocation-free Schur kernels with
LAPACK's in-place ``dpotrf``/``dtrtrs``, called through SciPy's f2py
binding ``scipy.linalg._flapack`` without importing ``scipy.linalg``, into
the :class:`~repro.linalg.plan.SolverPlan` every solve path (estimator,
functional HW sim) executes.
"""

from repro.linalg.cholesky import (
    backward_substitution,
    cholesky_evaluate_update,
    forward_substitution,
    solve_cholesky,
    solve_spd,
)
from repro.linalg.schur import (
    d_type_back_substitute,
    d_type_back_substitute_into,
    d_type_schur,
    d_type_schur_into,
    m_type_schur,
)
from repro.linalg.blocked import blocked_inverse
from repro.linalg.plan import (
    PlanSolveStats,
    SolverPlan,
    SolverPlanCache,
    default_plan_cache,
    reset_default_plan_cache,
)
from repro.linalg.smatrix import SMatrixLayout, CompactSMatrix

__all__ = [
    "cholesky_evaluate_update",
    "forward_substitution",
    "backward_substitution",
    "solve_cholesky",
    "solve_spd",
    "d_type_schur",
    "d_type_schur_into",
    "d_type_back_substitute",
    "d_type_back_substitute_into",
    "m_type_schur",
    "blocked_inverse",
    "PlanSolveStats",
    "SolverPlan",
    "SolverPlanCache",
    "default_plan_cache",
    "reset_default_plan_cache",
    "SMatrixLayout",
    "CompactSMatrix",
]
