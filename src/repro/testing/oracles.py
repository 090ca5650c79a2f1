"""The differential conformance oracles with typed mismatch reports.

Each oracle compares two independent descriptions of the same
computation on a deterministic randomized workload and returns an
:class:`OracleReport` listing every violated check as a typed
:class:`Mismatch`:

* ``backend`` — the batched (SoA) estimator linearization against the
  per-factor loop reference: same cost, same normal equations, same
  solution, same marginalization prior.
* ``functional`` — the functional accelerator datapath
  (:func:`repro.hw.sim.functional.run_iteration_functional`) against the
  software :meth:`~repro.slam.problem.LinearSystem.solve`: identical
  update vectors, positive finite cycle counts.
* ``trace`` — the cycle-level accelerator simulation against the
  analytical latency models (Equ. 6-10, 13-15), judged by
  :meth:`~repro.hw.sim.trace.TraceSimulation.model_agreement`.
* ``fixedpoint`` — Q-format quantized solves against the float64
  reference, with error bounds tied to the format's resolution.
* ``plan_solve`` — the :class:`repro.linalg.plan.SolverPlan` structured
  path against the independent dense float64 solve
  (:meth:`~repro.slam.problem.LinearSystem.solve_dense`), plus
  bit-identity of a reused plan, and of a plan refit from a larger
  feature count, vs a freshly built one.

Every oracle accepts a ``perturbation`` knob that deliberately skews one
side of the comparison; the conformance CLI's ``--perturb`` flag (and
the self-test in ``tests/test_conformance.py``) uses it to prove the
oracles actually detect disagreement instead of passing vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro.hw.config import HardwareConfig
from repro.hw.fixedpoint import QFormat, wordlength_study
from repro.hw.sim.functional import run_iteration_functional
from repro.hw.sim.trace import simulate_windows
from repro.slam.marginalization import marginalize_window
from repro.testing.workloads import (
    make_random_window,
    make_stats_series,
)

# Numerical budgets. The batched/loop and functional/software pairs run
# the same kernels modulo BLAS-level reassociation, so they get
# rounding-level budgets; the trace oracle inherits the model-agreement
# bound the co-simulation tests establish; the fixed-point bounds are
# calibrated against the wordlength study's noise floor on randomized
# windows. The backend budget is wider than tests/test_slam_batch.py's
# unit-scale TOL because fig11-scale blocks accumulate thousands of
# reassociated terms with large cancellations (measured deviation
# ~3e-10 absolute); it still sits six orders below any real defect.
BACKEND_RTOL = 1e-9
BACKEND_ATOL = 1e-8
FUNCTIONAL_ATOL = 1e-11
TRACE_AGREEMENT_TOL = 0.35
FIXEDPOINT_BITS = (8, 12, 16, 20, 24)
# Relative solution error allowed per fraction-bit count: a constant
# amplification factor over the format resolution, floored at the
# float64 noise the study itself bottoms out at.
FIXEDPOINT_AMPLIFICATION = 2.0e4
FIXEDPOINT_FLOOR = 1e-9
# Structured-vs-dense: two genuinely different algorithms (Schur + two
# triangular solves vs one dense LU), so conditioning-amplified rounding
# is expected; the budget still sits orders below any structural defect.
PLAN_RTOL = 1e-8
PLAN_ATOL = 1e-8


@dataclass(frozen=True)
class ConformanceWorkload:
    """One deterministic workload scale of the conformance matrix.

    ``scenario`` selects the workload regime (``"nominal"`` is the
    historical well-conditioned shape; see :mod:`repro.scenarios` for
    the degenerate regimes). ``design`` pins a named design point from
    :data:`DESIGN_POINTS` — empty means the legacy seed-cycled pool.
    """

    name: str
    seed: int
    num_keyframes: int
    num_features: int
    num_windows: int
    scenario: str = "nominal"
    design: str = ""

    def label(self) -> str:
        label = (
            f"{self.name}(seed={self.seed}, b={self.num_keyframes}, "
            f"a={self.num_features}, windows={self.num_windows})"
        )
        if self.scenario != "nominal" or self.design:
            label += f"[{self.scenario}"
            if self.design:
                label += f", {self.design}"
            label += "]"
        return label


@dataclass(frozen=True)
class Mismatch:
    """One violated conformance check."""

    metric: str
    expected: float
    actual: float
    tolerance: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "expected": self.expected,
            "actual": self.actual,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass
class OracleReport:
    """Outcome of one oracle on one workload."""

    oracle: str
    workload: str
    checks: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    seconds: float = 0.0
    info: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def check_scalar(
        self, metric: str, expected: float, actual: float, tolerance: float,
        detail: str = "",
    ) -> None:
        """Record a |actual - expected| <= tolerance check."""
        self.checks += 1
        difference = abs(float(actual) - float(expected))
        if not np.isfinite(actual) or difference > tolerance:
            self.mismatches.append(
                Mismatch(metric, float(expected), float(actual), tolerance, detail)
            )

    def check_array(
        self, metric: str, expected: np.ndarray, actual: np.ndarray,
        rtol: float, atol: float,
    ) -> None:
        """Record an elementwise allclose check, reporting the worst entry."""
        self.checks += 1
        expected = np.asarray(expected, dtype=float)
        actual = np.asarray(actual, dtype=float)
        if expected.shape != actual.shape:
            self.mismatches.append(
                Mismatch(metric, 0.0, 0.0, atol, f"shape {expected.shape} vs {actual.shape}")
            )
            return
        if expected.size == 0:
            return
        budget = atol + rtol * np.abs(expected)
        excess = np.abs(actual - expected) - budget
        excess = np.where(np.isnan(actual) | np.isnan(expected), np.inf, excess)
        worst = int(np.argmax(excess))
        if excess.flat[worst] > 0.0:
            self.mismatches.append(
                Mismatch(
                    metric,
                    float(expected.flat[worst]),
                    float(actual.flat[worst]),
                    float(np.asarray(budget).flat[worst] if np.ndim(budget) else budget),
                    f"worst element {np.unravel_index(worst, expected.shape)} "
                    f"of {expected.shape}",
                )
            )

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "workload": self.workload,
            "passed": self.passed,
            "checks": self.checks,
            "mismatches": [m.to_dict() for m in self.mismatches],
            "seconds": self.seconds,
            "info": self.info,
        }


# The named design points of the scenario x config matrix: one
# resource-starved corner and one high-performance corner of the
# (nd, nm, s) space, so every regime is checked at >= 2 configurations.
DESIGN_POINTS: dict[str, HardwareConfig] = {
    "dp-small": HardwareConfig(4, 4, 8),
    "dp-large": HardwareConfig(16, 8, 24),
}


def _hardware_config_for(workload: ConformanceWorkload) -> HardwareConfig:
    """The workload's pinned design point, else the seed-cycled pool."""
    if workload.design:
        if workload.design not in DESIGN_POINTS:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown design point {workload.design!r}; "
                f"choose from {sorted(DESIGN_POINTS)}"
            )
        return DESIGN_POINTS[workload.design]
    pool = (
        HardwareConfig(8, 8, 16),
        HardwareConfig(16, 8, 24),
        HardwareConfig(4, 4, 8),
        HardwareConfig(24, 16, 48),
    )
    return pool[workload.seed % len(pool)]


# ----------------------------------------------------------------------
# Oracle 1: batched vs loop estimator backends
# ----------------------------------------------------------------------

def run_backend_oracle(
    workload: ConformanceWorkload, perturbation: float = 0.0
) -> OracleReport:
    """Batched SoA linearization and marginalization must clone the loop."""
    report = OracleReport("backend", workload.label())
    tic = perf_counter()
    batched = make_random_window(
        workload.seed,
        num_keyframes=workload.num_keyframes,
        num_features=workload.num_features,
        backend="batched",
        scenario=workload.scenario,
    )
    loop = make_random_window(
        workload.seed,
        num_keyframes=workload.num_keyframes,
        num_features=workload.num_features,
        backend="loop",
        scenario=workload.scenario,
    )

    cost_loop = loop.cost()
    cost_batched = batched.cost() + perturbation * max(abs(cost_loop), 1.0)
    report.check_scalar(
        "cost", cost_loop, cost_batched,
        BACKEND_ATOL + BACKEND_RTOL * abs(cost_loop),
    )

    system_l = loop.build_linear_system()
    system_b = batched.build_linear_system()
    if perturbation:
        system_b.u_diag = system_b.u_diag + perturbation * (
            np.abs(system_b.u_diag).max(initial=0.0) + 1.0
        )
    for name in ("u_diag", "w_block", "v_block", "b_x", "b_y"):
        report.check_array(
            name, getattr(system_l, name), getattr(system_b, name),
            BACKEND_RTOL, BACKEND_ATOL,
        )

    d_lambda_l, d_state_l = system_l.solve(damping=1e-4)
    d_lambda_b, d_state_b = system_b.solve(damping=1e-4)
    # The solve amplifies input rounding differences by the system's
    # conditioning; a modest widening keeps the check tight without
    # flaking on ill-conditioned random windows.
    report.check_array("d_lambda", d_lambda_l, d_lambda_b, 1e-9, 1e-8)
    report.check_array("d_state", d_state_l, d_state_b, 1e-9, 1e-8)

    # Marginalization assembles through the same backend, so sliding the
    # oldest keyframe out (IMU-chained to the next) must fold the same prior.
    oldest = min(loop.states)
    prior_l = marginalize_window(loop, oldest).prior
    prior_b = marginalize_window(batched, oldest).prior
    hp_b = prior_b.hp
    if perturbation:
        hp_b = hp_b + perturbation * (np.abs(hp_b).max() + 1.0)
    report.check_array("prior_hp", prior_l.hp, hp_b, 1e-9, 1e-8)
    report.check_array("prior_rp", prior_l.rp, prior_b.rp, 1e-9, 1e-8)

    report.info = {
        "cost": cost_loop,
        "num_features": float(system_l.num_features),
        "num_frames": float(system_l.num_frames),
    }
    report.seconds = perf_counter() - tic
    return report


# ----------------------------------------------------------------------
# Oracle 2: functional accelerator execution vs software solve
# ----------------------------------------------------------------------

def run_functional_oracle(
    workload: ConformanceWorkload, perturbation: float = 0.0
) -> OracleReport:
    """The modeled hardware datapath must emit the software update."""
    report = OracleReport("functional", workload.label())
    tic = perf_counter()
    problem = make_random_window(
        workload.seed,
        num_keyframes=workload.num_keyframes,
        num_features=workload.num_features,
        scenario=workload.scenario,
    )
    config = _hardware_config_for(workload)
    damping = 1e-4

    hw = run_iteration_functional(problem, config, damping=damping)
    sw_lambda, sw_state = problem.build_linear_system().solve(damping=damping)
    hw_lambda = hw.d_lambda + perturbation
    hw_state = hw.d_state + perturbation

    report.check_array("d_lambda", sw_lambda, hw_lambda, 0.0, FUNCTIONAL_ATOL)
    report.check_array("d_state", sw_state, hw_state, 0.0, FUNCTIONAL_ATOL)
    report.check_scalar(
        "cycles_positive", 1.0, float(hw.cycles > 0 and np.isfinite(hw.cycles)), 0.0,
        detail=f"cycles={hw.cycles}",
    )
    report.check_scalar(
        "cholesky_rounds_positive", 1.0, float(hw.cholesky_rounds >= 1), 0.0,
        detail=f"rounds={hw.cholesky_rounds}",
    )

    report.info = {
        "cycles": float(hw.cycles),
        "seconds": float(hw.seconds),
        "cholesky_rounds": float(hw.cholesky_rounds),
    }
    report.seconds = perf_counter() - tic
    return report


# ----------------------------------------------------------------------
# Oracle 3: cycle-level trace simulation vs analytical latency model
# ----------------------------------------------------------------------

def run_trace_oracle(
    workload: ConformanceWorkload, perturbation: float = 0.0
) -> OracleReport:
    """Simulated cycles must track the closed-form model."""
    report = OracleReport("trace", workload.label())
    tic = perf_counter()
    series = make_stats_series(
        workload.seed,
        num_windows=workload.num_windows,
        max_features=max(workload.num_features, 2),
        scenario=workload.scenario,
    )
    config = _hardware_config_for(workload)
    trace = simulate_windows(series, config, seed=workload.seed)
    if perturbation:
        # The agreement tolerance is intentionally loose (a *model*
        # bound, not a rounding bound), so a detectable skew must step
        # past it rather than scale with the knob alone.
        scale = 1.0 + 2.0 * TRACE_AGREEMENT_TOL + perturbation
        trace.analytical_cycles = [c * scale for c in trace.analytical_cycles]

    agreement = trace.model_agreement()
    report.check_scalar(
        "model_agreement", 0.0, agreement, TRACE_AGREEMENT_TOL,
        detail=f"mean relative |sim - model| over {len(trace.simulated_cycles)} windows",
    )
    sim = np.asarray(trace.simulated_cycles)
    model = np.asarray(trace.analytical_cycles)
    defined = model != 0.0
    if defined.any():
        worst = float(np.max(np.abs(sim[defined] - model[defined]) / model[defined]))
        report.check_scalar(
            "worst_window_agreement", 0.0, worst, 3.0 * TRACE_AGREEMENT_TOL,
            detail="max relative |sim - model| of any window",
        )
    report.check_scalar(
        "all_windows_finite", 1.0,
        float(np.all(np.isfinite(sim)) and np.all(np.isfinite(model))), 0.0,
    )

    report.info = {
        "model_agreement": agreement,
        "total_seconds": trace.total_seconds,
        "total_energy_j": trace.total_energy_j,
        "windows": float(len(trace.simulated_cycles)),
    }
    report.seconds = perf_counter() - tic
    return report


# ----------------------------------------------------------------------
# Oracle 4: fixed-point vs float64 solves
# ----------------------------------------------------------------------

def run_fixedpoint_oracle(
    workload: ConformanceWorkload, perturbation: float = 0.0
) -> OracleReport:
    """Q-format solves must meet their resolution-scaled error bounds."""
    report = OracleReport("fixedpoint", workload.label())
    tic = perf_counter()
    problem = make_random_window(
        workload.seed,
        num_keyframes=workload.num_keyframes,
        num_features=workload.num_features,
        scenario=workload.scenario,
    )
    system = problem.build_linear_system()
    errors = wordlength_study(
        system.u_diag, system.w_block, system.v_block, system.b_x, system.b_y,
        fraction_bits=FIXEDPOINT_BITS,
    )
    if perturbation:
        errors = {bits: err + perturbation for bits, err in errors.items()}

    for bits in FIXEDPOINT_BITS:
        bound = max(
            FIXEDPOINT_AMPLIFICATION * QFormat(fraction_bits=bits).resolution,
            FIXEDPOINT_FLOOR,
        )
        report.check_scalar(
            f"relative_error_q{bits}", 0.0, errors[bits], bound,
            detail=f"||x_q - x|| / ||x|| at {bits} fraction bits",
        )
    # The wordlength curve must fall: the coarsest format cannot beat
    # the finest (the classic exponential-decay-to-noise-floor shape).
    coarse, fine = errors[FIXEDPOINT_BITS[0]], errors[FIXEDPOINT_BITS[-1]]
    report.check_scalar(
        "error_decreases_with_bits", 1.0, float(fine <= coarse), 0.0,
        detail=f"q{FIXEDPOINT_BITS[0]}={coarse:.3e} vs q{FIXEDPOINT_BITS[-1]}={fine:.3e}",
    )

    report.info = {f"q{bits}": float(errors[bits]) for bits in FIXEDPOINT_BITS}
    report.seconds = perf_counter() - tic
    return report


# ----------------------------------------------------------------------
# Oracle 5: SolverPlan structured solve vs the dense float64 reference
# ----------------------------------------------------------------------

def run_plan_oracle(
    workload: ConformanceWorkload, perturbation: float = 0.0
) -> OracleReport:
    """The SolverPlan path must clone the independent dense solve, and a
    reused plan must be bit-identical to a freshly built one."""
    from repro.linalg.plan import SolverPlan

    report = OracleReport("plan_solve", workload.label())
    tic = perf_counter()
    problem = make_random_window(
        workload.seed,
        num_keyframes=workload.num_keyframes,
        num_features=workload.num_features,
        scenario=workload.scenario,
    )
    system = problem.build_linear_system()
    damping = 1e-4

    plan = SolverPlan(system.num_features, system.b_y.shape[0])
    plan_lambda, plan_state = system.solve(damping=damping, plan=plan)
    dense_lambda, dense_state = system.solve_dense(damping=damping)
    if perturbation:
        plan_lambda = plan_lambda + perturbation
        plan_state = plan_state + perturbation
    report.check_array("d_lambda", dense_lambda, plan_lambda, PLAN_RTOL, PLAN_ATOL)
    report.check_array("d_state", dense_state, plan_state, PLAN_RTOL, PLAN_ATOL)

    # Reuse: a third execute on the warmed plan and a fresh plan's first
    # execute must agree to the bit, or symbolic reuse is leaking state.
    reused_lambda, reused_state = system.solve(damping=damping, plan=plan)
    fresh = SolverPlan(system.num_features, system.b_y.shape[0])
    fresh_lambda, fresh_state = system.solve(damping=damping, plan=fresh)
    if perturbation:
        reused_lambda = reused_lambda + perturbation
    report.check_scalar(
        "reuse_bit_identical_lambda", 1.0,
        float(np.array_equal(reused_lambda, fresh_lambda)), 0.0,
        detail="reused plan vs fresh plan, landmark update",
    )
    report.check_scalar(
        "reuse_bit_identical_state", 1.0,
        float(np.array_equal(reused_state, fresh_state)), 0.0,
        detail="reused plan vs fresh plan, keyframe update",
    )
    # Refit: the plan cache hands one plan per width to every feature
    # count, so a plan built for more features and refit to this
    # window's must solve it exactly as the fresh plan does.
    refit = SolverPlan(system.num_features + 7, system.b_y.shape[0])
    refit.fit(system.num_features)
    refit_lambda, refit_state = system.solve(damping=damping, plan=refit)
    if perturbation:
        refit_lambda = refit_lambda + perturbation
    report.check_scalar(
        "reuse_bit_identical_refit_lambda", 1.0,
        float(np.array_equal(refit_lambda, fresh_lambda)), 0.0,
        detail="plan refit from p + 7 vs fresh plan, landmark update",
    )
    report.check_scalar(
        "reuse_bit_identical_refit_state", 1.0,
        float(np.array_equal(refit_state, fresh_state)), 0.0,
        detail="plan refit from p + 7 vs fresh plan, keyframe update",
    )
    report.check_scalar(
        "no_spurious_jitter", 0.0, float(plan.last_stats.jitter_applied), 0.0,
        detail="jitter must only appear on factorization failure",
    )

    report.info = {
        "num_features": float(system.num_features),
        "state_dim": float(system.b_y.shape[0]),
        "executions": float(plan.executions),
    }
    report.seconds = perf_counter() - tic
    return report


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

OracleRunner = Callable[..., OracleReport]

ORACLES: dict[str, OracleRunner] = {
    "backend": run_backend_oracle,
    "functional": run_functional_oracle,
    "trace": run_trace_oracle,
    "fixedpoint": run_fixedpoint_oracle,
    "plan_solve": run_plan_oracle,
}
