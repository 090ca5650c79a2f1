"""Sharded serving: shared-nothing shards run side by side.

One :class:`~repro.serve.service.LocalizationService` is a single EDF
queue over one session set — a *shard*. This module scales the tier out
by running N shards side by side, each an independent shared-nothing
service with its own scheduler, admission regimes, virtual clock, seeded
arrival streams, engine memo, and plan caches:

* **Placement** is consistent hashing of the global session id onto a
  ring of shard virtual nodes (:class:`HashRing`), with bounded loads:
  no shard takes more than ``ceil(sessions / shards)``. Removing a
  shard — drain or failure — moves that shard's sessions, each to a
  deterministic surviving shard, plus at most a cap's worth of overflow
  rebalancing; everyone else stays put.
* **Execution**: every shard's event loop runs on its own thread, and
  each shard carries its own execution backend
  (:mod:`repro.serve.backend`). With ``backend="process"`` the NLS
  numerics of different shards run in different OS processes — the
  fleet finally uses all host cores — while the thread backend remains
  the byte-exact small-scale oracle. Set-up uses the cores too: every
  shard is started (its workers forked, building their own sessions)
  before any shard is prepared.
* **Correctness anchor**: because shards share nothing, an N-shard fleet
  run over a session set *is* the union of N single-shard runs — each
  shard's ``SERVE_METRICS.json`` is byte-identical to running its
  session slice through a standalone service, regardless of backend or
  worker count. The merged fleet metrics are a pure function of the
  per-shard metric dicts (:func:`merge_shard_metrics`).
"""

from __future__ import annotations

import bisect
import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.engine import Engine
from repro.errors import ConfigurationError, ServeError
from repro.obs.metrics import LatencyHistogram
from repro.obs.tracer import CLOCK_VIRTUAL, Span, Trace
from repro.serve.loadgen import LoadProfile
from repro.serve.service import LocalizationService, ServeReport
from repro.serve.telemetry import (
    METRICS_SCHEMA_VERSION,
    export_metrics,
    obs_metrics,
)

VNODES = 64  # ring points per shard


def _ring_hash(key: str) -> int:
    """Stable 64-bit ring position (sha256 prefix; never Python hash())."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing of session ids onto shards.

    Each shard contributes :data:`VNODES` points; a session lands on
    the first point clockwise from its own hash. The property the drain
    logic leans on: removing one shard's points reassigns only the keys
    that mapped to them.
    """

    def __init__(self, shard_ids: list[int]) -> None:
        if not shard_ids:
            raise ConfigurationError("a hash ring needs at least one shard")
        self._points = sorted(
            (_ring_hash(f"shard:{sid}:vnode:{v}"), sid)
            for sid in set(shard_ids)
            for v in range(VNODES)
        )

    def preference(self, session_id: int):
        """Distinct shards in clockwise order from the session's point.

        The first element is the session's home shard; the rest are its
        deterministic overflow order for bounded-load placement.
        """
        probe = (_ring_hash(f"session:{session_id}"), -1)
        start = bisect.bisect_right(self._points, probe)
        seen: set[int] = set()
        for offset in range(len(self._points)):
            shard = self._points[(start + offset) % len(self._points)][1]
            if shard not in seen:
                seen.add(shard)
                yield shard

    def assign(self, session_id: int) -> int:
        """The shard owning ``session_id`` (first point clockwise)."""
        return next(self.preference(session_id))


@dataclass(frozen=True)
class ShardSpec:
    """One shard's share of the fleet: sessions and instances."""

    shard_id: int
    session_ids: tuple[int, ...]
    num_instances: int


def plan_shards(
    profile: LoadProfile,
    num_shards: int,
    drained: frozenset[int] | set[int] = frozenset(),
) -> tuple[ShardSpec, ...]:
    """Deterministic fleet plan: session placement + instance split.

    Placement is consistent hashing **with bounded loads**: each session
    goes to its home shard (first ring point clockwise) unless that
    shard is already at the ``ceil(sessions / shards)`` cap, in which
    case it walks the ring to the next shard with room. The cap matters
    because the slowest shard bounds the fleet's wall clock — pure
    consistent hashing over a handful of keys routinely lands 40% of
    them on one shard, capping multicore speedup well below N.

    ``drained`` shards are excluded from the ring, so their sessions
    rehash onto survivors; every other session keeps its shard unless
    the tighter per-survivor cap forces a bounded number of overflow
    moves. The profile's instances are spread round-robin across active
    shards (never below one per shard, so a small pool over many shards
    overprovisions rather than starving a shard).
    """
    if num_shards < 1:
        raise ConfigurationError("need at least one shard")
    unknown = sorted(set(drained) - set(range(num_shards)))
    if unknown:
        raise ConfigurationError(
            f"cannot drain unknown shard(s) {unknown}: shard ids are "
            f"0..{num_shards - 1}"
        )
    active = [sid for sid in range(num_shards) if sid not in set(drained)]
    if not active:
        raise ConfigurationError("cannot drain every shard in the fleet")
    ring = HashRing(active)
    cap = -(-profile.num_sessions // len(active))  # ceil division
    sessions_by_shard: dict[int, list[int]] = {sid: [] for sid in active}
    for session_id in range(profile.num_sessions):
        for shard_id in ring.preference(session_id):
            if len(sessions_by_shard[shard_id]) < cap:
                sessions_by_shard[shard_id].append(session_id)
                break
    base, remainder = divmod(profile.num_instances, len(active))
    return tuple(
        ShardSpec(
            shard_id=sid,
            session_ids=tuple(sessions_by_shard[sid]),
            num_instances=max(1, base + (1 if index < remainder else 0)),
        )
        for index, sid in enumerate(active)
    )


def shard_service(
    profile: LoadProfile,
    spec: ShardSpec,
    engine=None,
    fidelity: str = "analytical",
    backend: str = "thread",
    workers: int | None = None,
) -> LocalizationService:
    """The standalone service equivalent of one fleet shard.

    Both :func:`run_fleet` and the union-equivalence tests build shards
    through here, so "fleet shard" and "single-shard run" are the same
    object by construction.
    """
    return LocalizationService(
        replace(profile, num_instances=spec.num_instances),
        engine=engine if engine is not None else Engine(use_disk=False),
        fidelity=fidelity,
        backend=backend,
        workers=workers,
        session_ids=spec.session_ids,
        shard_id=spec.shard_id,
    )


@dataclass
class FleetReport:
    """Merged outcome of one sharded run (plus every shard's report)."""

    profile: LoadProfile
    specs: tuple[ShardSpec, ...]
    shard_reports: list[ServeReport]
    metrics: dict  # merged + per-shard; deterministic
    wall_seconds: float

    def write_metrics(self, path: str | Path) -> Path:
        return export_metrics(self.metrics, path)

    def merged_trace(self) -> Trace:
        """All shards' virtual-time spans on one trace, tagged by shard.

        Spans are concatenated in shard order, so the export is
        byte-identical across repeats and backends like its inputs.
        """
        trace = Trace(clock=CLOCK_VIRTUAL, name=f"serve:{self.profile.name}:fleet")
        for spec, report in zip(self.specs, self.shard_reports):
            if report is None or report.trace is None:
                continue
            for span in report.trace.spans:
                trace.spans.append(
                    Span(
                        name=span.name,
                        category=span.category,
                        start_s=span.start_s,
                        duration_s=span.duration_s,
                        depth=span.depth,
                        track=span.track,
                        attributes={**span.attributes, "shard": spec.shard_id},
                    )
                )
        return trace

    def write_trace(self, path: str | Path) -> Path:
        return self.merged_trace().export_jsonl(path)

    def write_chrome_trace(self, path: str | Path) -> Path:
        return self.merged_trace().export_chrome(path)

    def write_obs_metrics(self, path: str | Path) -> Path:
        """Fleet-level ``OBS_METRICS.json`` (a view of :attr:`metrics`)."""
        return export_metrics(obs_metrics(self.metrics), path)

    def render(self) -> str:
        totals = self.metrics["totals"]
        latency = self.metrics["latency_ms"]
        fleet = self.metrics["fleet"]
        drained = (
            f" (drained: {fleet['drained']})" if fleet["drained"] else ""
        )
        lines = [
            f"== serve fleet: {self.profile.name} ==",
            (
                f"shards {len(self.specs)} of {fleet['num_shards']}{drained}  "
                f"sessions {self.profile.num_sessions}  "
                f"instances {self.profile.num_instances}  seed {self.profile.seed}"
            ),
        ]
        for spec, report in zip(self.specs, self.shard_reports):
            if report is None:
                lines.append(
                    f"  shard {spec.shard_id}: 0 sessions (empty slice)"
                )
                continue
            shard_totals = report.metrics["totals"]
            lines.append(
                f"  shard {spec.shard_id}: {len(spec.session_ids)} sessions on "
                f"{spec.num_instances} instance(s)  "
                f"served {shard_totals['windows_served']}  "
                f"shed {shard_totals['windows_shed']}  "
                f"p99 {report.metrics['latency_ms']['p99_ms']:.2f} ms"
            )
        lines += [
            (
                f"served {totals['windows_served']}  shed {totals['windows_shed']}  "
                f"degraded {totals['windows_degraded']}  "
                f"deadline-missed {totals['deadline_misses']}  "
                f"errors {totals['errors']}"
            ),
            (
                f"latency p50 {latency['p50_ms']:.2f} ms  "
                f"p95 {latency['p95_ms']:.2f} ms  p99 {latency['p99_ms']:.2f} ms"
            ),
            (
                f"throughput {totals['throughput_wps']:.1f} windows/s over "
                f"{totals['makespan_s']:.2f} virtual s  "
                f"(wall {self.wall_seconds:.2f} s)"
            ),
            f"energy {totals['energy_j']:.3f} J across the fleet",
        ]
        return "\n".join(lines)


def merge_shard_metrics(
    shard_metrics: list[dict],
    profile: LoadProfile,
    num_shards: int,
    drained: frozenset[int] | set[int] = frozenset(),
) -> dict:
    """Fold per-shard metric dicts into one fleet-level dict.

    Pure and deterministic: the merged file is a function of the shard
    files alone, so merging the outputs of N standalone runs gives the
    byte-identical fleet artifact. Shapes mirror the per-shard file
    (``totals``/``latency_ms``/``queue``/...), with the full per-shard
    dicts preserved under ``"shards"``.
    """
    if not shard_metrics:
        raise ServeError("cannot merge zero shard metric sets")

    def total(key: str) -> float:
        return sum(m["totals"][key] for m in shard_metrics)

    served = total("windows_served")
    shed = total("windows_shed")
    makespan = max(m["totals"]["makespan_s"] for m in shard_metrics)

    def merge_histograms(key: str) -> dict:
        merged = LatencyHistogram()
        for m in shard_metrics:
            merged.merge(LatencyHistogram.from_dict(m[key]))
        return merged.as_dict()

    occupancy: dict[str, int] = {}
    for m in shard_metrics:
        for size, count in m["batches"]["occupancy_histogram"].items():
            occupancy[size] = occupancy.get(size, 0) + count
    batches = sum(occupancy.values())
    batched_windows = sum(int(size) * count for size, count in occupancy.items())

    # Shards run concurrently in virtual time, so the fleet's
    # time-weighted mean depth over [0, makespan] is the sum of each
    # shard's depth integral over the shared horizon.
    depth_integral = sum(
        m["queue"]["depth_time_weighted_mean"] * m["totals"]["makespan_s"]
        for m in shard_metrics
    )

    sessions = sorted(
        (entry for m in shard_metrics for entry in m["sessions"]),
        key=lambda entry: entry["session_id"],
    )
    instances = [
        {"shard_id": m["shard"]["shard_id"], **entry}
        for m in shard_metrics
        for entry in m["instances"]
    ]

    # Per-config counters aggregate by the stable config id: the same
    # design point on different shards is one fleet-level line, and every
    # counter (windows, busy time, window energy, reconfig time/energy)
    # sums exactly — the conservation property tests/test_serve_fleet.py
    # holds across shard counts.
    configs: dict[str, dict] = {}
    for m in shard_metrics:
        for entry in m.get("configs", []):
            merged_entry = configs.setdefault(
                entry["config_id"],
                {
                    "config_id": entry["config_id"],
                    "windows_served": 0,
                    "busy_seconds": 0.0,
                    "energy_j": 0.0,
                    "reconfigurations": 0,
                    "reconfig_seconds": 0.0,
                    "reconfig_energy_j": 0.0,
                },
            )
            for key in (
                "windows_served",
                "busy_seconds",
                "energy_j",
                "reconfigurations",
                "reconfig_seconds",
                "reconfig_energy_j",
            ):
                merged_entry[key] += entry[key]

    first = shard_metrics[0]
    return {
        "schema": METRICS_SCHEMA_VERSION,
        "profile": asdict(profile),
        "fidelity": first["fidelity"],
        "design": first["design"],
        "totals": {
            "windows_served": served,
            "windows_shed": shed,
            "windows_degraded": total("windows_degraded"),
            "deadline_misses": total("deadline_misses"),
            "errors": total("errors"),
            "shed_fraction": shed / (served + shed) if served + shed else 0.0,
            "makespan_s": makespan,
            "throughput_wps": served / makespan if makespan else 0.0,
            "energy_j": total("energy_j"),
            "reconfigurations": total("reconfigurations"),
            "reconfig_energy_j": total("reconfig_energy_j"),
        },
        "latency_ms": merge_histograms("latency_ms"),
        "queue_wait_ms": merge_histograms("queue_wait_ms"),
        "service_ms": merge_histograms("service_ms"),
        "queue": {
            "depth_max": max(m["queue"]["depth_max"] for m in shard_metrics),
            "depth_time_weighted_mean": (
                depth_integral / makespan if makespan else 0.0
            ),
        },
        "batches": {
            "count": batches,
            "mean_occupancy": batched_windows / batches if batches else 0.0,
            "occupancy_histogram": {
                size: occupancy[size]
                for size in sorted(occupancy, key=int)
            },
        },
        "sessions": sessions,
        "configs": [configs[cid] for cid in sorted(configs)],
        # Each shard solves its own instance slice; the fleet-level view
        # is the merged "configs" list above (and the per-shard solutions
        # under "shards"), so only the forecast name is lifted here.
        "portfolio": {"name": first["portfolio"]["name"]},
        # Every shard resolves the same frozen artifact (the profile
        # names it), so lifting the first shard's identity is exact.
        "policy": first.get("policy", {"name": ""}),
        "scheduler": {
            "submitted": sum(m["scheduler"]["submitted"] for m in shard_metrics),
            "accepted": sum(m["scheduler"]["accepted"] for m in shard_metrics),
            "degraded": sum(m["scheduler"]["degraded"] for m in shard_metrics),
            "shed": sum(m["scheduler"]["shed"] for m in shard_metrics),
            "max_queue": profile.max_queue,
            "backpressure": profile.backpressure,
            "batch_size": profile.batch_size,
        },
        "instances": instances,
        "cache": {
            "memo_hits": sum(m["cache"]["memo_hits"] for m in shard_metrics),
            "distinct_artifacts": sum(
                m["cache"]["distinct_artifacts"] for m in shard_metrics
            ),
        },
        "fleet": {
            "num_shards": num_shards,
            "drained": sorted(drained),
            "shards": [
                {
                    "shard_id": m["shard"]["shard_id"],
                    "session_ids": m["shard"]["session_ids"],
                    "num_instances": m["profile"]["num_instances"],
                    "windows_served": m["totals"]["windows_served"],
                    "makespan_s": m["totals"]["makespan_s"],
                    "throughput_wps": m["totals"]["throughput_wps"],
                }
                for m in shard_metrics
            ],
        },
        "shards": shard_metrics,
    }


def run_fleet(
    profile: LoadProfile,
    num_shards: int,
    backend: str = "thread",
    workers: int | None = None,
    fidelity: str = "analytical",
    drained: frozenset[int] | set[int] = frozenset(),
    engine_factory=None,
) -> FleetReport:
    """Plan the shards, run them side by side, merge their telemetry.

    ``engine_factory`` builds one engine *per shard* (default: a fresh
    in-memory engine) — shards must share nothing, or their cache
    counters would depend on cross-shard timing.
    """
    drained = frozenset(drained)
    engine_factory = engine_factory or (lambda: Engine(use_disk=False))
    specs = plan_shards(profile, num_shards, drained=drained)
    started = time.perf_counter()
    # Start every shard, then prepare each, all on the calling thread:
    # a process backend forks its workers at start and they build their
    # sessions while the parent starts the next shard and prepares the
    # first, so shards build side by side; forking happens before any
    # shard loop thread exists. Then every shard's event loop runs on
    # its own thread. Thread backends stay GIL-bound (the oracle);
    # process backends put each shard's numerics on separate cores. A
    # failed start or prepare stops the workers of every shard started
    # so far, its own included.
    live: list[tuple[ShardSpec, LocalizationService]] = []
    try:
        for spec in specs:
            if not spec.session_ids:
                continue
            service = shard_service(
                profile,
                spec,
                engine=engine_factory(),
                fidelity=fidelity,
                backend=backend,
                workers=workers,
            )
            live.append((spec, service))
            service.start()
        for _, service in live:
            service.prepare()
    except BaseException:
        for _, service in live:
            service.close()
        raise
    if not live:
        raise ServeError("fleet plan left every shard empty")

    with ThreadPoolExecutor(max_workers=len(live)) as executor:
        futures = [(spec, executor.submit(service.run)) for spec, service in live]
        reports_by_shard: dict[int, ServeReport] = {}
        errors = []
        for spec, future in futures:
            try:
                reports_by_shard[spec.shard_id] = future.result()
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append((spec.shard_id, error))
    if errors:
        detail = "; ".join(f"shard {sid}: {err}" for sid, err in errors)
        raise ServeError(f"fleet run failed: {detail}")

    shard_reports = [reports_by_shard.get(spec.shard_id) for spec in specs]
    merged = merge_shard_metrics(
        [r.metrics for r in shard_reports if r is not None],
        profile,
        num_shards,
        drained=drained,
    )
    return FleetReport(
        profile=profile,
        specs=specs,
        shard_reports=shard_reports,
        metrics=merged,
        wall_seconds=time.perf_counter() - started,
    )
