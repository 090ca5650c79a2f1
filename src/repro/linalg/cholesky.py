"""Cholesky decomposition in the hardware's Evaluate/Update form.

The accelerator's Cholesky block (Sec. 4.3) iterates column by column:
the *Evaluate* phase produces column ``i`` of ``L`` (a square root and a
column scale), and the *Update* phase applies the rank-1 downdate to the
trailing submatrix. ``cholesky_evaluate_update`` implements exactly that
schedule so the cycle simulator can count Evaluate/Update operations
while computing the true factor, and tests can check it against
``numpy.linalg.cholesky``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.utils.validation import check_square


def cholesky_evaluate_update(
    matrix: np.ndarray, jitter: float = 0.0
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Factor a symmetric positive-definite matrix as ``L @ L.T``.

    Returns the lower-triangular factor and the per-iteration operation
    counts ``[(evaluate_ops_i, update_ops_i), ...]`` that the latency
    model of Equ. 7 is built from: at iteration ``i`` over an ``m x m``
    input the Evaluate phase touches ``m - i`` elements and the Update
    phase ``(m - i - 1)(m - i) / 2`` elements.

    Args:
        matrix: symmetric positive-definite input.
        jitter: value added to the diagonal before factoring (the
            Levenberg-Marquardt damping path reuses this kernel).

    Raises:
        SolverError: if a pivot is not strictly positive.
    """
    work = check_square("matrix", matrix).copy()
    size = work.shape[0]
    if jitter:
        work[np.diag_indices(size)] += jitter
    factor = np.zeros_like(work)
    op_counts: list[tuple[int, int]] = []
    for i in range(size):
        pivot = work[i, i]
        if pivot <= 0.0 or not np.isfinite(pivot):
            raise SolverError(f"non-positive pivot {pivot:.3e} at column {i}")
        # Evaluate phase: sqrt + scale the column below the pivot.
        diag = np.sqrt(pivot)
        factor[i, i] = diag
        column = work[i + 1 :, i] / diag
        factor[i + 1 :, i] = column
        evaluate_ops = size - i
        # Update phase: rank-1 downdate of the trailing block.
        if column.size:
            work[i + 1 :, i + 1 :] -= np.outer(column, column)
        update_ops = (size - i - 1) * (size - i) // 2
        op_counts.append((evaluate_ops, update_ops))
    return factor, op_counts


def forward_substitution(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L y = rhs`` for lower-triangular ``L`` (the FBSub node)."""
    lower = check_square("lower", lower)
    rhs = np.asarray(rhs, dtype=float)
    size = lower.shape[0]
    y = np.zeros_like(rhs, dtype=float)
    for i in range(size):
        pivot = lower[i, i]
        if pivot == 0.0:
            raise SolverError(f"zero pivot at row {i} in forward substitution")
        y[i] = (rhs[i] - lower[i, :i] @ y[:i]) / pivot
    return y


def backward_substitution(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``U x = rhs`` for upper-triangular ``U`` (the FBSub node)."""
    upper = check_square("upper", upper)
    rhs = np.asarray(rhs, dtype=float)
    size = upper.shape[0]
    x = np.zeros_like(rhs, dtype=float)
    for i in range(size - 1, -1, -1):
        pivot = upper[i, i]
        if pivot == 0.0:
            raise SolverError(f"zero pivot at row {i} in backward substitution")
        x[i] = (rhs[i] - upper[i, i + 1 :] @ x[i + 1 :]) / pivot
    return x


def solve_cholesky(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = rhs`` given the lower factor ``L``."""
    y = forward_substitution(factor, rhs)
    return backward_substitution(factor.T, y)


def solve_spd(matrix: np.ndarray, rhs: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Factor-and-solve for a symmetric positive-definite system."""
    factor, _ = cholesky_evaluate_update(matrix, jitter=jitter)
    return solve_cholesky(factor, rhs)
