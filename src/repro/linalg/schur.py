"""Schur complement kernels: the D-type and M-type blocks of Sec. 4.4.

* ``d_type_schur`` — the NLS solver's ``V - W U^-1 W^T`` with diagonal
  ``U`` (landmark block); O(n) inversion, exploited per feature point.
* ``m_type_schur`` — marginalization's ``A - Lambda M^-1 Lambda^T`` with a
  generic ``M``, inverted through the blocked formula of Equ. 5.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.linalg.blocked import blocked_inverse
from repro.utils.validation import check_square


def d_type_schur(
    v_block: np.ndarray,
    w_block: np.ndarray,
    u_diagonal: np.ndarray,
    b_x: np.ndarray | None = None,
    b_y: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Compute ``V - W diag(u)^-1 W^T`` (and the reduced RHS if given).

    Args:
        v_block: (q, q) keyframe block.
        w_block: (q, p) coupling block (the paper's W; X = W^T because U
            is diagonal, Sec. 3.2.2).
        u_diagonal: (p,) diagonal entries of U (landmark block).
        b_x: (p,) RHS entries of the eliminated unknowns.
        b_y: (q,) RHS entries of the retained unknowns.

    Returns:
        (reduced_matrix, reduced_rhs); ``reduced_rhs`` is None unless
        both RHS pieces were provided.
    """
    v_block = check_square("v_block", v_block)
    w_block = np.asarray(w_block, dtype=float)
    u_diagonal = np.asarray(u_diagonal, dtype=float).reshape(-1)
    if w_block.shape != (v_block.shape[0], u_diagonal.size):
        raise ValueError(
            f"w_block must be {(v_block.shape[0], u_diagonal.size)}, got {w_block.shape}"
        )
    if np.any(u_diagonal == 0.0):
        raise SolverError("U has zero diagonal entries; cannot eliminate")

    w_scaled = w_block / u_diagonal  # W U^-1, O(pq) thanks to diagonal U
    reduced = v_block - w_scaled @ w_block.T
    reduced_rhs = None
    if b_x is not None and b_y is not None:
        reduced_rhs = np.asarray(b_y, dtype=float) - w_scaled @ np.asarray(b_x, dtype=float)
    return reduced, reduced_rhs


def d_type_back_substitute(
    w_block: np.ndarray,
    u_diagonal: np.ndarray,
    b_x: np.ndarray,
    delta_y: np.ndarray,
) -> np.ndarray:
    """Recover the eliminated unknowns: ``dx = U^-1 (b_x - W^T dy)``."""
    u_diagonal = np.asarray(u_diagonal, dtype=float).reshape(-1)
    return (np.asarray(b_x, dtype=float) - np.asarray(w_block).T @ delta_y) / u_diagonal


def d_type_schur_into(
    v_block: np.ndarray,
    w_block: np.ndarray,
    u_inverse: np.ndarray,
    b_x: np.ndarray,
    b_y: np.ndarray,
    out_reduced: np.ndarray,
    out_rhs: np.ndarray,
    w_scaled: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Allocation-free :func:`d_type_schur` into caller-owned workspaces.

    Computes ``out_reduced = V - W diag(u)^-1 W^T`` and
    ``out_rhs = b_y - W diag(u)^-1 b_x`` given the *precomputed
    reciprocal* ``u_inverse = 1/u`` (p,), entirely through in-place
    matmuls/einsum: ``w_scaled`` (q, p) and ``scratch`` (q, q) are the
    :class:`repro.linalg.plan.SolverPlan` arenas. The row scaling goes
    through einsum rather than a broadcast ufunc because numpy's
    broadcast iterator allocates its 64 KiB transfer buffer per call —
    einsum's specialized loop does not. No validation — the plan checked
    the structure once at build time, and ``u_inverse`` comes from a
    diagonal already floored strictly positive by the caller.
    """
    np.einsum("ij,j->ij", w_block, u_inverse, out=w_scaled)
    np.matmul(w_scaled, w_block.T, out=scratch)
    np.subtract(v_block, scratch, out=out_reduced)
    np.matmul(w_scaled, b_x, out=out_rhs)
    np.subtract(b_y, out_rhs, out=out_rhs)


def d_type_back_substitute_into(
    w_block: np.ndarray,
    u_diagonal: np.ndarray,
    b_x: np.ndarray,
    delta_y: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Allocation-free ``dx = U^-1 (b_x - W^T dy)`` into ``out`` (p,)."""
    np.matmul(delta_y, w_block, out=out)  # dy @ W == W^T dy
    np.subtract(b_x, out, out=out)
    np.divide(out, u_diagonal, out=out)
    return out


def m_type_schur(
    a_block: np.ndarray,
    lambda_block: np.ndarray,
    m_block: np.ndarray,
    b_m: np.ndarray,
    b_r: np.ndarray,
    m_diagonal_split: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Marginalization prior: ``Hp = A - L M^-1 L^T``, ``rp = br - L M^-1 bm``.

    Args:
        a_block: (r, r) retained block.
        lambda_block: (r, m) coupling block Lambda.
        m_block: (m, m) marginalized block M (generic symmetric).
        b_m / b_r: information-vector pieces for marginalized / retained.
        m_diagonal_split: if given, invert M through the Equ. 5 blocked
            formula with a diagonal leading block of this size (the
            cost-optimal blocking the M-DFG builder chooses); otherwise
            invert M directly.

    Returns:
        (Hp, rp) — the new prior matrix and vector.
    """
    a_block = check_square("a_block", a_block)
    m_block = check_square("m_block", m_block)
    lambda_block = np.asarray(lambda_block, dtype=float)
    if lambda_block.shape != (a_block.shape[0], m_block.shape[0]):
        raise ValueError(
            f"lambda_block must be {(a_block.shape[0], m_block.shape[0])}, "
            f"got {lambda_block.shape}"
        )
    if m_diagonal_split is not None and 0 < m_diagonal_split < m_block.shape[0]:
        m_inv = blocked_inverse(m_block, m_diagonal_split, diagonal_11=True)
    else:
        m_inv = np.linalg.inv(m_block)
    coupling = lambda_block @ m_inv
    prior_matrix = a_block - coupling @ lambda_block.T
    prior_vector = np.asarray(b_r, dtype=float) - coupling @ np.asarray(b_m, dtype=float)
    # Symmetrize: floating-point asymmetry would otherwise accumulate
    # across windows through the prior.
    prior_matrix = 0.5 * (prior_matrix + prior_matrix.T)
    return prior_matrix, prior_vector
