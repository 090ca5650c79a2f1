"""The exact solver of the synthesis optimization (Equ. 11 / Equ. 12).

The latency model is separable in the three knobs — the nd term, the nm
term and the s term contribute additively (with a max against the fixed
Jacobian latency) — so the full 90,000-point grid can be evaluated with
three small vectors and broadcasting. ``exhaustive_search`` does exactly
that in milliseconds and is provably optimal for either objective; the
spec's ``objective`` picks Equ. 11 (min power under the latency budget)
or Equ. 12 (min latency).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import InfeasibleDesignError
from repro.hw.config import HardwareConfig, ND_RANGE, NM_RANGE, S_RANGE
from repro.hw.fpga import RESOURCE_KINDS
from repro.hw.latency import (
    backsub_latency,
    cholesky_latency,
    dschur_feature_latency,
    jacobian_feature_latency,
    mschur_latency,
)
from repro.hw.power import DEFAULT_POWER_MODEL
from repro.hw.resources import DEFAULT_RESOURCE_MODEL
from repro.synth.spec import DesignSpec, Objective

# Tie-breaking: every feasible point whose score lies within this
# relative band of the global minimum is a candidate, and the candidate
# with the smallest tiebreak metric wins (first in lexicographic
# (nd, nm, s) order on a tiebreak tie), so plateaus of the latency
# surface resolve the same way on every platform.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one optimization solve."""

    config: HardwareConfig
    power_w: float
    latency_s: float
    solve_seconds: float
    evaluated_points: int


def _latency_grid(
    spec: DesignSpec, upper_bound: HardwareConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized latency over the (possibly bounded) design space.

    Returns (nd_values, nm_values, s_values, latency_seconds) where the
    latency array has shape (len(nd), len(nm), len(s)). ``upper_bound``
    clips each knob's range — the Equ. 18 constraint that a run-time
    reconfiguration must fit inside the static design.
    """
    stats = spec.workload
    nd_max = upper_bound.nd if upper_bound else ND_RANGE[1]
    nm_max = upper_bound.nm if upper_bound else NM_RANGE[1]
    s_max = upper_bound.s if upper_bound else S_RANGE[1]
    nd_values = np.arange(ND_RANGE[0], nd_max + 1)
    nm_values = np.arange(NM_RANGE[0], nm_max + 1)
    s_values = np.arange(S_RANGE[0], s_max + 1)

    a = max(stats.num_features, 1)
    am = max(stats.num_marginalized, 1)
    q = stats.state_size * max(stats.num_keyframes, 1)
    jac = jacobian_feature_latency(stats.avg_observations)
    sub = backsub_latency(stats)

    dschur = np.array(
        [dschur_feature_latency(stats.avg_observations, int(nd)) for nd in nd_values]
    )
    chol = np.array([cholesky_latency(q, int(s)) for s in s_values])
    mschur = np.array([mschur_latency(stats, int(nm)) for nm in nm_values])
    per_feature = np.maximum(jac, dschur)  # (nd,)

    # Equ. 13: Iter * L_NLS + L_marg, broadcast over the three axes.
    nls = (
        spec.iterations * (a * per_feature[:, None] + chol[None, :] + sub)
    )  # (nd, s)
    marg_nd = am * jac + am * dschur  # (nd,)
    cycles = (
        nls[:, None, :]
        + marg_nd[:, None, None]
        + chol[None, None, :]
        + mschur[None, :, None]
    )  # (nd, nm, s)
    return nd_values, nm_values, s_values, cycles / spec.platform.frequency_hz


def _feasibility_grid(
    spec: DesignSpec,
    nd_values: np.ndarray,
    nm_values: np.ndarray,
    s_values: np.ndarray,
) -> np.ndarray:
    """Boolean (nd, nm, s) grid of resource feasibility (Equ. 16)."""
    feasible = np.ones(
        (nd_values.size, nm_values.size, s_values.size), dtype=bool
    )
    for kind in RESOURCE_KINDS:
        linear = getattr(DEFAULT_RESOURCE_MODEL, kind)
        usage = (
            linear.base
            + linear.per_nd * nd_values[:, None, None]
            + linear.per_nm * nm_values[None, :, None]
            + linear.per_s * s_values[None, None, :]
        )
        feasible &= usage <= spec.resource_budget * spec.platform.capacity(kind)
    return feasible


def _power_grid(
    nd_values: np.ndarray, nm_values: np.ndarray, s_values: np.ndarray
) -> np.ndarray:
    model = DEFAULT_POWER_MODEL
    return (
        model.base
        + model.per_nd * nd_values[:, None, None]
        + model.per_nm * nm_values[None, :, None]
        + model.per_s * s_values[None, None, :]
    )


def exhaustive_search(
    spec: DesignSpec, upper_bound: HardwareConfig | None = None
) -> SearchOutcome:
    """Evaluate the entire (possibly bounded) space; return the optimum."""
    started = perf_counter()
    nd_values, nm_values, s_values, latency = _latency_grid(spec, upper_bound)
    feasible = _feasibility_grid(spec, nd_values, nm_values, s_values)
    power = _power_grid(nd_values, nm_values, s_values)

    if spec.objective is Objective.POWER:
        feasible &= latency <= spec.latency_budget_s
        score = np.where(feasible, power, np.inf)
        tiebreak = latency
    else:
        score = np.where(feasible, latency, np.inf)
        tiebreak = power

    if not np.isfinite(score).any():
        # Equ. 12 has no latency bound, so only the resources can fail it.
        if spec.objective is Objective.POWER:
            bound = f"meets latency <= {spec.latency_budget_s * 1e3:.1f} ms within"
        else:
            bound = f"fits within {spec.resource_budget * 100:g}% of"
        raise InfeasibleDesignError(
            f"no (nd, nm, s) {bound} the resources of {spec.platform.name}"
        )
    # Among in-band points prefer the smallest tiebreak metric; the
    # stable sort makes the lexicographically first (nd, nm, s) win
    # on exact tiebreak ties.
    best = np.min(score)
    candidates = np.argwhere(score <= best * (1 + _TIE_RTOL))
    order = np.argsort(
        [tiebreak[tuple(c)] for c in candidates], kind="stable"
    )
    i, j, k = candidates[order[0]]
    config = HardwareConfig(
        int(nd_values[i]), int(nm_values[j]), int(s_values[k])
    )
    return SearchOutcome(
        config=config,
        power_w=float(power[i, j, k]),
        latency_s=float(latency[i, j, k]),
        solve_seconds=perf_counter() - started,
        evaluated_points=int(score.size),
    )
