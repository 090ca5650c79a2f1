"""Serve-tier telemetry: latency histograms, queue/batch gauges, drift.

Everything here is driven by *virtual* (simulated) time, so a seeded
serve run produces bit-identical metrics on every execution — the
property the determinism tests and the ``SERVE_METRICS.json`` contract
rely on. Wall-clock numbers (how long the simulation itself took) are
deliberately kept out of the exported metrics and reported only on
stdout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# The log-binned histogram lives in repro.obs.metrics now — one
# implementation for the whole stack; this re-export keeps the serve
# tier's public name (`from repro.serve import LatencyHistogram`) alive.
from repro.obs.metrics import LatencyHistogram, metrics_layout

METRICS_SCHEMA_VERSION = 1

__all__ = [
    "ConfigMetrics",
    "LatencyHistogram",
    "METRICS_SCHEMA_VERSION",
    "SessionMetrics",
    "Telemetry",
    "export_metrics",
    "obs_metrics",
]


@dataclass
class SessionMetrics:
    """Per-session accounting the serve report breaks out."""

    session_id: int
    sequence: str = ""
    windows_served: int = 0
    windows_shed: int = 0
    windows_degraded: int = 0
    deadline_misses: int = 0
    reconfigurations: int = 0
    iterations_total: int = 0
    energy_j: float = 0.0
    drift_sum_m: float = 0.0
    drift_max_m: float = 0.0

    def record_drift(self, meters: float) -> None:
        self.drift_sum_m += meters
        self.drift_max_m = max(self.drift_max_m, meters)

    def as_dict(self) -> dict:
        served = self.windows_served
        return {
            "session_id": self.session_id,
            "sequence": self.sequence,
            "windows_served": served,
            "windows_shed": self.windows_shed,
            "windows_degraded": self.windows_degraded,
            "deadline_misses": self.deadline_misses,
            "reconfigurations": self.reconfigurations,
            "mean_iterations": self.iterations_total / served if served else 0.0,
            "energy_j": self.energy_j,
            "mean_drift_m": self.drift_sum_m / served if served else 0.0,
            "max_drift_m": self.drift_max_m,
        }


@dataclass
class ConfigMetrics:
    """Per-design-point accounting across the (possibly mixed) pool.

    Keyed by the stable ``HardwareConfig.label`` config id, so the same
    design point aggregates across instances — and, through
    :func:`repro.serve.fleet.merge_shard_metrics`, across shards.
    """

    config_id: str
    windows_served: int = 0
    busy_seconds: float = 0.0
    energy_j: float = 0.0
    reconfigurations: int = 0
    reconfig_seconds: float = 0.0
    reconfig_energy_j: float = 0.0

    def as_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "windows_served": self.windows_served,
            "busy_seconds": self.busy_seconds,
            "energy_j": self.energy_j,
            "reconfigurations": self.reconfigurations,
            "reconfig_seconds": self.reconfig_seconds,
            "reconfig_energy_j": self.reconfig_energy_j,
        }


class Telemetry:
    """All counters and gauges of one serve run."""

    def __init__(self) -> None:
        self.latency = LatencyHistogram()  # ready -> completion
        self.queue_wait = LatencyHistogram()  # ready -> dispatch
        self.service = LatencyHistogram()  # dispatch -> completion
        self.batch_occupancy: dict[int, int] = {}
        self.windows_served = 0
        self.windows_shed = 0
        self.windows_degraded = 0
        self.deadline_misses = 0
        self.errors = 0
        self.sessions: dict[int, SessionMetrics] = {}
        self.configs: dict[str, ConfigMetrics] = {}
        self.reconfigurations = 0
        self.reconfig_energy_j = 0.0
        # Time-weighted queue-depth integral plus the exact maximum.
        self.queue_depth_max = 0
        self._depth_integral = 0.0
        self._last_depth = 0
        self._last_depth_t = 0.0
        self.end_time_s = 0.0

    def session(self, session_id: int, sequence: str = "") -> SessionMetrics:
        metrics = self.sessions.get(session_id)
        if metrics is None:
            metrics = self.sessions[session_id] = SessionMetrics(
                session_id=session_id, sequence=sequence
            )
        return metrics

    def config(self, config_id: str) -> ConfigMetrics:
        metrics = self.configs.get(config_id)
        if metrics is None:
            metrics = self.configs[config_id] = ConfigMetrics(config_id=config_id)
        return metrics

    def record_reconfig(self, config_id: str, seconds: float, joules: float) -> None:
        """One partial-reconfiguration swap, charged to the *new* config."""
        metrics = self.config(config_id)
        metrics.reconfigurations += 1
        metrics.reconfig_seconds += seconds
        metrics.reconfig_energy_j += joules
        self.reconfigurations += 1
        self.reconfig_energy_j += joules

    def sample_queue_depth(self, t: float, depth: int) -> None:
        """Record a queue-depth change at virtual time ``t``."""
        if t > self._last_depth_t:
            self._depth_integral += self._last_depth * (t - self._last_depth_t)
            self._last_depth_t = t
        self._last_depth = depth
        self.queue_depth_max = max(self.queue_depth_max, depth)

    def record_batch(self, size: int) -> None:
        self.batch_occupancy[size] = self.batch_occupancy.get(size, 0) + 1

    def record_window(
        self,
        session: SessionMetrics,
        ready_time: float,
        dispatch_time: float,
        completion_time: float,
        deadline: float,
        iterations: int,
        degraded: bool,
        reconfigured: bool,
        energy_j: float,
        drift_m: float,
        config_id: str = "",
        service_s: float = 0.0,
    ) -> None:
        self.latency.record(completion_time - ready_time)
        self.queue_wait.record(dispatch_time - ready_time)
        self.service.record(completion_time - dispatch_time)
        self.windows_served += 1
        session.windows_served += 1
        session.iterations_total += iterations
        session.energy_j += energy_j
        session.record_drift(drift_m)
        if config_id:
            config = self.config(config_id)
            config.windows_served += 1
            config.busy_seconds += service_s
            config.energy_j += energy_j
        if degraded:
            self.windows_degraded += 1
            session.windows_degraded += 1
        if reconfigured:
            session.reconfigurations += 1
        if completion_time > deadline:
            self.deadline_misses += 1
            session.deadline_misses += 1
        self.end_time_s = max(self.end_time_s, completion_time)

    def record_shed(self, session: SessionMetrics, t: float) -> None:
        self.windows_shed += 1
        session.windows_shed += 1
        self.end_time_s = max(self.end_time_s, t)

    def queue_depth_mean(self) -> float:
        if self.end_time_s <= 0:
            return 0.0
        integral = self._depth_integral
        if self.end_time_s > self._last_depth_t:
            integral += self._last_depth * (self.end_time_s - self._last_depth_t)
        return integral / self.end_time_s

    def as_dict(self) -> dict:
        total_windows = self.windows_served + self.windows_shed
        batches = sum(self.batch_occupancy.values())
        batched_windows = sum(s * n for s, n in self.batch_occupancy.items())
        return {
            "totals": {
                "windows_served": self.windows_served,
                "windows_shed": self.windows_shed,
                "windows_degraded": self.windows_degraded,
                "deadline_misses": self.deadline_misses,
                "errors": self.errors,
                "shed_fraction": (
                    self.windows_shed / total_windows if total_windows else 0.0
                ),
                "makespan_s": self.end_time_s,
                "throughput_wps": (
                    self.windows_served / self.end_time_s if self.end_time_s else 0.0
                ),
                "energy_j": sum(s.energy_j for s in self.sessions.values()),
                "reconfigurations": self.reconfigurations,
                "reconfig_energy_j": self.reconfig_energy_j,
            },
            "latency_ms": self.latency.as_dict(),
            "queue_wait_ms": self.queue_wait.as_dict(),
            "service_ms": self.service.as_dict(),
            "queue": {
                "depth_max": self.queue_depth_max,
                "depth_time_weighted_mean": self.queue_depth_mean(),
            },
            "batches": {
                "count": batches,
                "mean_occupancy": batched_windows / batches if batches else 0.0,
                "occupancy_histogram": {
                    str(size): count
                    for size, count in sorted(self.batch_occupancy.items())
                },
            },
            "sessions": [
                self.sessions[sid].as_dict() for sid in sorted(self.sessions)
            ],
            "configs": [
                self.configs[cid].as_dict() for cid in sorted(self.configs)
            ],
        }


# OBS_METRICS.json counter name -> SERVE_METRICS.json ``totals`` key.
_TOTALS_COUNTERS = (
    ("serve_windows_served_total", "windows_served"),
    ("serve_windows_shed_total", "windows_shed"),
    ("serve_windows_degraded_total", "windows_degraded"),
    ("serve_deadline_misses_total", "deadline_misses"),
    ("serve_errors_total", "errors"),
    ("serve_reconfigurations_total", "reconfigurations"),
    ("serve_reconfig_energy_joules_total", "reconfig_energy_j"),
)


def obs_metrics(metrics: dict) -> dict:
    """``OBS_METRICS.json`` for one serve run or a merged fleet.

    A view of the ``SERVE_METRICS.json`` dict ``metrics`` (a shard's or
    :func:`repro.serve.fleet.merge_shard_metrics`'s): every counter,
    gauge and histogram equals the field it names there, so the two
    files cannot disagree.
    """
    totals = metrics["totals"]
    counters = {name: totals[key] for name, key in _TOTALS_COUNTERS}
    for config in metrics["configs"]:
        config_id = config["config_id"]
        counters[f"serve_config_windows_served_total:{config_id}"] = config["windows_served"]
        counters[f"serve_config_energy_joules_total:{config_id}"] = config["energy_j"]
    gauges = {
        "serve_queue_depth_max": metrics["queue"]["depth_max"],
        "serve_queue_depth_mean": metrics["queue"]["depth_time_weighted_mean"],
        "serve_makespan_seconds": totals["makespan_s"],
    }
    if "fleet" in metrics:
        gauges["serve_num_shards"] = metrics["fleet"]["num_shards"]
    return metrics_layout(
        counters,
        gauges,
        histograms={
            "serve_latency_seconds": metrics["latency_ms"],
            "serve_queue_wait_seconds": metrics["queue_wait_ms"],
            "serve_service_seconds": metrics["service_ms"],
        },
    )


def export_metrics(metrics: dict, path: str | Path) -> Path:
    """Write a metrics dict as canonical JSON (sorted keys, fixed layout).

    Canonical form is what makes the determinism acceptance check
    meaningful: two runs agree iff their files are byte-identical.
    """
    path = Path(path)
    path.write_text(json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    return path
