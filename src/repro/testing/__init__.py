"""Cross-layer differential conformance and fault-injection subsystem.

Archytas's correctness story is a chain of agreements: the batched
estimator backend agrees with the per-factor loop, the functional
accelerator datapath agrees with the software solver, the cycle-level
trace simulation agrees with the analytical latency models, and the
fixed-point datapath agrees with float64 up to its Q-format resolution.
This package makes each link a first-class, runnable *oracle*:

* :mod:`repro.testing.workloads` — deterministic random-workload
  builders (windows, stats series, hardware configs) shared by the
  oracles, the Hypothesis strategies, and the test suite;
* :mod:`repro.testing.oracles` — the differential runners with typed
  mismatch reports (backend, functional, trace, fixedpoint, plus the
  SolverPlan-vs-dense solve oracle);
* :mod:`repro.testing.faults` — deterministic fault injectors (NaN
  tracks, IMU gaps, degenerate windows, corrupted cache blobs);
* :mod:`repro.testing.conformance` — the oracle x workload matrix,
  serialized to ``CONFORMANCE.json``;
* ``python -m repro.testing`` — the CI-gating conformance CLI.

:mod:`repro.testing.strategies` (shared Hypothesis strategies and the
named test profiles) is deliberately *not* imported here: Hypothesis is
a test-only dependency and the conformance CLI must run without it.
"""

from repro.testing.conformance import (
    ConformanceRun,
    ConformanceWorkload,
    DEFAULT_WORKLOADS,
    QUICK_WORKLOADS,
    run_conformance,
)
from repro.testing.oracles import (
    Mismatch,
    ORACLES,
    OracleReport,
    run_backend_oracle,
    run_fixedpoint_oracle,
    run_functional_oracle,
    run_plan_oracle,
    run_trace_oracle,
)

__all__ = [
    "ConformanceRun",
    "ConformanceWorkload",
    "DEFAULT_WORKLOADS",
    "QUICK_WORKLOADS",
    "Mismatch",
    "ORACLES",
    "OracleReport",
    "run_backend_oracle",
    "run_fixedpoint_oracle",
    "run_functional_oracle",
    "run_plan_oracle",
    "run_trace_oracle",
    "run_conformance",
]
