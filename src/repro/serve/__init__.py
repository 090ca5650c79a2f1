"""``repro.serve`` — a multi-session localization service.

The serving tier runs many concurrent SLAM sessions (robots) against a
pool of simulated accelerator instances, with cross-session
micro-batching, deadline-aware scheduling, admission control that
degrades or sheds under overload, and deterministic virtual-time
telemetry exported as ``SERVE_METRICS.json``. See ``docs/serving.md``.

Typical use::

    from repro.serve import resolve_profile, run_profile

    report = run_profile(resolve_profile("smoke"))
    print(report.render())
    report.write_metrics("SERVE_METRICS.json")
"""

from repro.serve.accelerator import (
    FIDELITIES,
    AcceleratorInstance,
    ServiceCharge,
    make_pool,
)
from repro.serve.backend import (
    BACKENDS,
    ProcessBackend,
    ThreadBackend,
    make_backend,
)
from repro.serve.fleet import (
    FleetReport,
    HashRing,
    ShardSpec,
    merge_shard_metrics,
    plan_shards,
    run_fleet,
    shard_service,
)
from repro.serve.loadgen import (
    PROFILES,
    LoadProfile,
    available_profiles,
    open_loop_arrivals,
    resolve_profile,
    session_sequence_config,
)
from repro.serve.scheduler import Admission, Scheduler
from repro.serve.service import LocalizationService, ServeReport, run_profile
from repro.serve.session import (
    Session,
    SessionBuild,
    SessionEstimator,
    SessionSpec,
    SessionState,
    WindowOutcome,
    WindowRequest,
    build_sessions,
)
from repro.serve.telemetry import (
    METRICS_SCHEMA_VERSION,
    ConfigMetrics,
    LatencyHistogram,
    SessionMetrics,
    Telemetry,
    export_metrics,
    obs_metrics,
)

__all__ = [
    "AcceleratorInstance",
    "Admission",
    "BACKENDS",
    "ConfigMetrics",
    "FIDELITIES",
    "FleetReport",
    "HashRing",
    "LatencyHistogram",
    "LoadProfile",
    "LocalizationService",
    "METRICS_SCHEMA_VERSION",
    "PROFILES",
    "ProcessBackend",
    "Scheduler",
    "ServeReport",
    "ServiceCharge",
    "Session",
    "SessionBuild",
    "SessionEstimator",
    "SessionMetrics",
    "SessionSpec",
    "SessionState",
    "ShardSpec",
    "Telemetry",
    "ThreadBackend",
    "WindowOutcome",
    "WindowRequest",
    "available_profiles",
    "build_sessions",
    "export_metrics",
    "make_backend",
    "make_pool",
    "merge_shard_metrics",
    "obs_metrics",
    "open_loop_arrivals",
    "plan_shards",
    "resolve_profile",
    "run_fleet",
    "run_profile",
    "session_sequence_config",
    "shard_service",
]
