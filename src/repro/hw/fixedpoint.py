"""Fixed-point arithmetic modeling for the accelerator datapath.

The generated hardware computes in fixed point (the RTL's 32-bit MAC
lanes), not IEEE doubles. This module models Q-format quantization so
the wordlength decision can be studied: quantize the linear system the
way the Input Buffer would, run the same solve, and measure the error
against the double-precision result. The study
(:func:`wordlength_study`) reproduces the classic accelerator-design
curve — solution error falls exponentially with fraction bits and hits
the noise floor around Q16-Q20, which is why 32-bit words are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QFormat:
    """A signed fixed-point format with ``integer_bits``.``fraction_bits``.

    The sign bit is accounted separately: total width is
    1 + integer_bits + fraction_bits.
    """

    integer_bits: int = 15
    fraction_bits: int = 16

    def __post_init__(self) -> None:
        if self.integer_bits < 1 or self.fraction_bits < 0:
            raise ConfigurationError("invalid Q format")

    @property
    def total_bits(self) -> int:
        return 1 + self.integer_bits + self.fraction_bits

    @property
    def resolution(self) -> float:
        return 2.0 ** (-self.fraction_bits)

    @property
    def max_value(self) -> float:
        return 2.0**self.integer_bits - self.resolution

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round to the grid and saturate to the representable range."""
        values = np.asarray(values, dtype=float)
        scaled = np.round(values / self.resolution) * self.resolution
        return np.clip(scaled, -(2.0**self.integer_bits), self.max_value)


def quantized_solve(
    u_diag: np.ndarray,
    w_block: np.ndarray,
    v_block: np.ndarray,
    b_x: np.ndarray,
    b_y: np.ndarray,
    q_format: QFormat,
    normalize: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the arrow system with inputs quantized to the Q format.

    Models the dominant fixed-point effect — input/parameter-buffer
    quantization — while the accumulations run at the MAC's doubled
    internal width (as in the RTL's 2*WIDTH accumulators).

    With ``normalize`` (the default, matching the hardware), the system
    is block-scaled before quantization: the Input Buffer stores values
    scaled by a power of two chosen so the largest magnitude fits the
    format, with the exponent tracked per block — block floating point.
    Scaling (alpha A) x = (alpha b) leaves the solution unchanged, so
    only the *relative* quantization noise remains.
    """
    from repro.linalg.cholesky import cholesky_evaluate_update, solve_cholesky
    from repro.linalg.schur import d_type_back_substitute, d_type_schur

    if normalize:
        peak = max(
            float(np.abs(np.asarray(arr)).max(initial=0.0))
            for arr in (u_diag, w_block, v_block, b_x, b_y)
        )
        if peak > 0.0:
            # Power-of-two scale so the peak sits just inside the format.
            scale = 2.0 ** np.floor(np.log2(q_format.max_value / peak))
        else:
            scale = 1.0
    else:
        scale = 1.0

    u_q = np.maximum(q_format.quantize(u_diag * scale), q_format.resolution)
    w_q = q_format.quantize(w_block * scale)
    v_q = q_format.quantize(v_block * scale)
    bx_q = q_format.quantize(b_x * scale)
    by_q = q_format.quantize(b_y * scale)

    reduced, reduced_rhs = d_type_schur(v_q, w_q, u_q, b_x=bx_q, b_y=by_q)
    assert reduced_rhs is not None
    # Coarse quantization can push the reduced matrix off positive
    # definiteness; the hardware's LM damping absorbs exactly this, so
    # escalate a quantization-scaled jitter until the factorization
    # succeeds (bounded retries).
    from repro.errors import SolverError

    jitter = max(1e-9, q_format.resolution)
    factor = None
    for _ in range(6):
        try:
            factor, _ = cholesky_evaluate_update(
                reduced + jitter * np.eye(reduced.shape[0])
            )
            break
        except SolverError:
            jitter *= 100.0
    if factor is None:
        raise SolverError(
            f"reduced system not factorable at {q_format.fraction_bits} fraction bits"
        )
    d_state = solve_cholesky(factor, reduced_rhs)
    d_lambda = d_type_back_substitute(w_q, u_q, bx_q, d_state)
    return d_lambda, d_state


def wordlength_study(
    u_diag: np.ndarray,
    w_block: np.ndarray,
    v_block: np.ndarray,
    b_x: np.ndarray,
    b_y: np.ndarray,
    fraction_bits: tuple[int, ...] = (4, 8, 12, 16, 20, 24),
) -> dict[int, float]:
    """Relative solution error vs fraction-bit count.

    Returns fraction_bits -> ||x_q - x|| / ||x|| against the
    double-precision reference.
    """
    from repro.linalg.cholesky import cholesky_evaluate_update, solve_cholesky
    from repro.linalg.schur import d_type_back_substitute, d_type_schur

    u = np.maximum(np.asarray(u_diag, dtype=float), 1e-12)
    reduced, reduced_rhs = d_type_schur(v_block, w_block, u, b_x=b_x, b_y=b_y)
    assert reduced_rhs is not None
    factor, _ = cholesky_evaluate_update(reduced + 1e-9 * np.eye(reduced.shape[0]))
    ref_state = solve_cholesky(factor, reduced_rhs)
    ref_lambda = d_type_back_substitute(w_block, u, b_x, ref_state)
    reference = np.concatenate([ref_lambda, ref_state])
    norm = max(float(np.linalg.norm(reference)), 1e-300)

    errors = {}
    for bits in fraction_bits:
        q_lambda, q_state = quantized_solve(
            u_diag, w_block, v_block, b_x, b_y, QFormat(fraction_bits=bits)
        )
        solution = np.concatenate([q_lambda, q_state])
        errors[bits] = float(np.linalg.norm(solution - reference)) / norm
    return errors
