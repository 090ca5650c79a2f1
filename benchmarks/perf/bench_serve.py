#!/usr/bin/env python
"""Serving-tier benchmark: pool scaling and shard/process scaling.

Two sections, one seeded open-loop workload, one ``BENCH_serve.json``:

* **Pool scaling** (virtual time): the workload against pools of 1, 2,
  and 4 simulated accelerator instances — served throughput in virtual
  windows/s, latency percentiles, queue behaviour, utilization.
* **Shard scaling** (wall time): the same workload on a fixed 4-instance
  pool split across 1, 2, and 4 shared-nothing shards with the process
  execution backend, against the single-process thread baseline. The
  reported number is *wall-clock* serving throughput (windows served per
  second of event-loop wall time, one-time prepare/fork cost excluded) —
  the multicore payoff. Virtual metrics are byte-identical across every
  point by construction; the bench asserts that invariant.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/perf/bench_serve.py
    PYTHONPATH=src python benchmarks/perf/bench_serve.py \
        --sessions 12 --rate 30 --duration 3 --output /tmp/bench.json

``scaling_1_to_4`` is the pool-scaling acceptance number;
``shards.wall_scaling_1_to_4`` is the shard-scaling one (≥3x expected on
a 4-core runner; on fewer cores the process backend only pays overhead).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import Engine  # noqa: E402
from repro.serve import LoadProfile, LocalizationService, run_fleet  # noqa: E402


def base_profile(args: argparse.Namespace) -> LoadProfile:
    """A burst workload that saturates every pool size under test.

    Arrivals come fast enough that the whole recording of every session
    is offered within a fraction of a second; admission control is
    opened wide (no shedding, no degradation) so each pool size serves
    the *same* fixed set of windows and throughput = capacity.
    """
    return LoadProfile(
        name="bench-serve" + (f"-{args.scenario}" if args.scenario else ""),
        description="throughput-scaling workload for bench_serve.py",
        scenario=args.scenario,
        num_sessions=args.sessions,
        num_instances=1,
        arrival="poisson",
        rate_hz=args.rate,
        duration_s=args.duration,
        sequence_duration_s=args.sequence_duration,
        deadline_s=0.25,
        # Depth can never exceed num_sessions (single-inflight rule), so
        # max_queue == num_sessions disables admission shedding and
        # backpressure == max_queue disables degradation.
        max_queue=args.sessions,
        backpressure=args.sessions,
        max_pending_per_session=64,
        batch_size=4,
        seed=args.seed,
    )


def bench_pool(profile: LoadProfile, num_instances: int) -> dict:
    """One pool size, fresh engine (memo shared within the run only)."""
    run_profile = dataclasses.replace(profile, num_instances=num_instances)
    # An in-process engine without disk keeps pool sizes independent of
    # each other and of any cache state on the machine.
    service = LocalizationService(run_profile, engine=Engine(use_disk=False))
    report = service.run()
    totals = report.metrics["totals"]
    return {
        "num_instances": num_instances,
        "throughput_wps": totals["throughput_wps"],
        "windows_served": totals["windows_served"],
        "windows_shed": totals["windows_shed"],
        "windows_degraded": totals["windows_degraded"],
        "deadline_misses": totals["deadline_misses"],
        "errors": totals["errors"],
        "makespan_s": totals["makespan_s"],
        "latency_p50_ms": report.metrics["latency_ms"]["p50_ms"],
        "latency_p99_ms": report.metrics["latency_ms"]["p99_ms"],
        "queue_depth_max": report.metrics["queue"]["depth_max"],
        "mean_batch_occupancy": report.metrics["batches"]["mean_occupancy"],
        "utilization": [
            instance["utilization"] for instance in report.metrics["instances"]
        ],
        "wall_seconds": report.wall_seconds,
    }


def bench_fleet(profile: LoadProfile, num_shards: int, backend: str) -> dict:
    """One fleet shape on a fixed 4-instance pool: wall-clock serving rate.

    ``serve_wall_seconds`` is the event-loop phase only — the slowest
    shard's wall time after set-up (every shard's start, then prepare) —
    because that is the steady-state serving rate; set-up is a one-time
    cost reported separately.
    """
    report = run_fleet(
        dataclasses.replace(profile, num_instances=4), num_shards, backend=backend
    )
    totals = report.metrics["totals"]
    live = [r for r in report.shard_reports if r is not None]
    serve_wall = max(r.wall_seconds - r.prepare_seconds for r in live)
    served = totals["windows_served"]
    return {
        "num_shards": num_shards,
        "backend": backend,
        "windows_served": served,
        "errors": totals["errors"],
        "virtual_throughput_wps": totals["throughput_wps"],
        "serve_wall_seconds": serve_wall,
        "prepare_wall_seconds": sum(r.prepare_seconds for r in live),
        "wall_throughput_wps": served / serve_wall if serve_wall else 0.0,
        "sessions_per_shard": [len(s.session_ids) for s in report.specs],
    }


def bench_shard_scaling(profile: LoadProfile) -> dict:
    """Thread baseline vs process backend at 1, 2, and 4 shards."""
    baseline = bench_fleet(profile, 1, "thread")
    points = [baseline] + [bench_fleet(profile, n, "process") for n in (1, 2, 4)]
    base = baseline["wall_throughput_wps"]
    by_shards = {
        p["num_shards"]: p for p in points if p["backend"] == "process"
    }
    return {
        "points": points,
        # At a fixed shard count, virtual metrics must not depend on the
        # execution backend — the determinism contract the wall-clock
        # comparison rests on. (Different shard counts legitimately
        # differ: each shard count is its own set of EDF queues.)
        "virtual_invariant": (
            baseline["virtual_throughput_wps"]
            == by_shards[1]["virtual_throughput_wps"]
            and baseline["windows_served"] == by_shards[1]["windows_served"]
        ),
        "wall_scaling_1_to_2": (
            by_shards[2]["wall_throughput_wps"] / base if base else 0.0
        ),
        "wall_scaling_1_to_4": (
            by_shards[4]["wall_throughput_wps"] / base if base else 0.0
        ),
    }


def bench_policy(policy_path: str) -> dict:
    """Learned-policy vs counter-baseline energy/drift on the eval profiles.

    Virtual-time metrics, so every number is deterministic given the
    frozen artifact — a changed ``policy_energy_saving`` means the
    artifact or the serving tier changed, never the machine.
    """
    from repro.runtime.policy import ControllerPolicy
    from repro.serve import resolve_profile

    frozen = ControllerPolicy.load(policy_path)
    entries = []
    for name in ("smoke", "steady", "overload"):
        profile = resolve_profile(name)
        engine = Engine(use_disk=False)
        base = LocalizationService(profile, engine=engine).run().metrics
        learned = (
            LocalizationService(
                dataclasses.replace(profile, policy=str(policy_path)),
                engine=engine,
            )
            .run()
            .metrics
        )
        base_e = base["totals"]["energy_j"]
        learned_e = learned["totals"]["energy_j"]

        def mean_drift(metrics: dict) -> float:
            served = sum(s["windows_served"] for s in metrics["sessions"])
            weighted = sum(
                s["mean_drift_m"] * s["windows_served"]
                for s in metrics["sessions"]
            )
            return weighted / served if served else 0.0

        entries.append(
            {
                "profile": name,
                "baseline_energy_j": base_e,
                "policy_energy_j": learned_e,
                "energy_saving": 1.0 - learned_e / base_e if base_e else 0.0,
                "baseline_drift_m": mean_drift(base),
                "policy_drift_m": mean_drift(learned),
                "baseline_deadline_misses": base["totals"]["deadline_misses"],
                "policy_deadline_misses": learned["totals"]["deadline_misses"],
            }
        )
    return {
        "artifact": str(policy_path),
        "digest": frozen.digest,
        "profiles": entries,
        "mean_energy_saving": sum(e["energy_saving"] for e in entries)
        / len(entries),
    }


def run_benchmark(args: argparse.Namespace) -> dict:
    profile = base_profile(args)
    pools = [bench_pool(profile, n) for n in (1, 2, 4)]
    by_size = {p["num_instances"]: p for p in pools}
    base = by_size[1]["throughput_wps"]
    return {
        "benchmark": "serve-throughput-scaling",
        "workload": {
            "num_sessions": profile.num_sessions,
            "rate_hz": profile.rate_hz,
            "duration_s": profile.duration_s,
            "sequence_duration_s": profile.sequence_duration_s,
            "scenario": profile.scenario or "nominal",
            "seed": profile.seed,
        },
        "pools": pools,
        "scaling_1_to_2": by_size[2]["throughput_wps"] / base if base else 0.0,
        "scaling_1_to_4": by_size[4]["throughput_wps"] / base if base else 0.0,
        "shards": None if args.skip_shards else bench_shard_scaling(profile),
        "policy": bench_policy(args.policy) if args.policy else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=16)
    parser.add_argument("--rate", type=float, default=60.0)
    parser.add_argument("--duration", type=float, default=1.5)
    parser.add_argument("--sequence-duration", type=float, default=4.0)
    parser.add_argument(
        "--scenario",
        default="",
        metavar="NAME",
        help="serve a degenerate regime's recordings instead of the "
        "catalog mix (tunnel, loop_closure, aggressive, highway, mixed)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_serve.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--skip-shards",
        action="store_true",
        help="skip the shard/process scaling section (pool scaling only)",
    )
    parser.add_argument(
        "--policy",
        default=None,
        metavar="ARTIFACT",
        help="also benchmark this frozen POLICY.json against the counter "
        "baseline on the eval profiles (energy/drift per profile)",
    )
    parser.add_argument(
        "--min-scaling",
        type=float,
        default=None,
        help="exit non-zero if scaling_1_to_4 falls below this",
    )
    parser.add_argument(
        "--max-p99-ms",
        type=float,
        default=None,
        help="exit non-zero if the 4-instance pool's p99 exceeds this",
    )
    parser.add_argument(
        "--require-zero-errors",
        action="store_true",
        help="exit non-zero if any pool recorded a serve error",
    )
    args = parser.parse_args()

    report = run_benchmark(args)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for pool in report["pools"]:
        print(
            f"instances {pool['num_instances']}: "
            f"{pool['throughput_wps']:8.1f} windows/s  "
            f"p99 {pool['latency_p99_ms']:7.2f} ms  "
            f"shed {pool['windows_shed']:4d}  "
            f"errors {pool['errors']}  "
            f"(wall {pool['wall_seconds']:.1f} s)"
        )
    print(
        f"scaling 1->2: {report['scaling_1_to_2']:.2f}x   "
        f"1->4: {report['scaling_1_to_4']:.2f}x"
    )
    shards = report["shards"]
    if shards is not None:
        for point in shards["points"]:
            print(
                f"shards {point['num_shards']} ({point['backend']:7s}): "
                f"{point['wall_throughput_wps']:8.1f} windows/wall-s  "
                f"serve {point['serve_wall_seconds']:.2f} s  "
                f"prepare {point['prepare_wall_seconds']:.2f} s  "
                f"errors {point['errors']}"
            )
        print(
            f"shard wall scaling (process vs 1-shard thread) "
            f"1->2: {shards['wall_scaling_1_to_2']:.2f}x   "
            f"1->4: {shards['wall_scaling_1_to_4']:.2f}x   "
            f"virtual metrics invariant: {shards['virtual_invariant']}"
        )
    policy = report["policy"]
    if policy is not None:
        for entry in policy["profiles"]:
            print(
                f"policy {entry['profile']:<9}: energy "
                f"{entry['baseline_energy_j']:.4f} -> "
                f"{entry['policy_energy_j']:.4f} J "
                f"({entry['energy_saving']:+.1%})  drift "
                f"{entry['baseline_drift_m']:.6f} -> "
                f"{entry['policy_drift_m']:.6f} m"
            )
        print(
            f"policy mean energy saving: {policy['mean_energy_saving']:+.1%} "
            f"(digest {policy['digest'][:12]})"
        )
    print(f"report -> {args.output}")

    failed = []
    if args.min_scaling is not None and report["scaling_1_to_4"] < args.min_scaling:
        failed.append(
            f"scaling_1_to_4 {report['scaling_1_to_4']:.2f} < {args.min_scaling}"
        )
    four = next(p for p in report["pools"] if p["num_instances"] == 4)
    if args.max_p99_ms is not None and four["latency_p99_ms"] > args.max_p99_ms:
        failed.append(f"p99 {four['latency_p99_ms']:.2f} ms > {args.max_p99_ms}")
    if args.require_zero_errors and any(p["errors"] for p in report["pools"]):
        failed.append("serve errors recorded")
    if shards is not None and not shards["virtual_invariant"]:
        failed.append("virtual metrics varied across backends/shard counts")
    if failed:
        print("FAILED: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
