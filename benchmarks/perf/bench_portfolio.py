#!/usr/bin/env python
"""Portfolio-fleet benchmark: mixed configs vs the best single config.

One seeded open-loop workload over the ``mixed`` degenerate-regime
forecast, two fleets of equal instance count, one
``BENCH_portfolio.json``:

* **single-best** — the solver constrained to one config
  (``portfolio_configs=1``): the best *homogeneous* fleet for the mix.
  This is the Archytas-style baseline: one synthesized accelerator,
  replicated.
* **portfolio-fifo** — the solved mixed portfolio deployed across the
  same instance count.

Both fleets run the service's one dispatcher: each free instance takes
the next earliest-deadline-first micro-batch, and a window is priced at
the config of the instance that takes it. The acceptance claim is
Pareto domination at equal instance count: the portfolio's p99 latency
must not exceed the single-config fleet's, and its total energy must be
strictly lower. Shedding and degradation are disabled (queue bounds
opened to the session count) so both fleets serve the identical window
set and the comparison is apples to apples.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/perf/bench_portfolio.py
    PYTHONPATH=src python benchmarks/perf/bench_portfolio.py \
        --sessions 8 --rate 8 --duration 4 --output /tmp/bench.json

``--require-domination`` turns the Pareto claim into the exit code.
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
from repro.serve import LoadProfile, LocalizationService  # noqa: E402


def base_profile(args: argparse.Namespace) -> LoadProfile:
    """The shared workload: every fleet serves the same window set.

    Queue bounds open to the session count (single-inflight rule bounds
    depth by sessions) so no fleet sheds or degrades — served work is
    identical and (p99, energy) is a fair frontier.
    """
    return LoadProfile(
        name="bench-portfolio",
        description="portfolio-vs-single-config workload for bench_portfolio.py",
        scenario="mixed",
        num_sessions=args.sessions,
        num_instances=args.instances,
        arrival="poisson",
        rate_hz=args.rate,
        duration_s=args.duration,
        sequence_duration_s=args.sequence_duration,
        deadline_s=0.25,
        max_queue=args.sessions,
        backpressure=args.sessions,
        max_pending_per_session=64,
        batch_size=4,
        seed=args.seed,
    )


def bench_fleet(profile: LoadProfile, label: str, **overrides) -> dict:
    """One fleet variant on a fresh in-process engine."""
    variant = dataclasses.replace(profile, **overrides)
    report = LocalizationService(variant, engine=Engine(use_disk=False)).run()
    metrics = report.metrics
    totals = metrics["totals"]
    portfolio = metrics["portfolio"]
    return {
        "label": label,
        "configs": [
            {"config_id": e["config_id"], "count": e["count"]}
            for e in portfolio.get("entries", [])
        ],
        "windows_served": totals["windows_served"],
        "windows_shed": totals["windows_shed"],
        "errors": totals["errors"],
        "energy_j": totals["energy_j"],
        "reconfig_energy_j": totals["reconfig_energy_j"],
        "latency_p50_ms": metrics["latency_ms"]["p50_ms"],
        "latency_p99_ms": metrics["latency_ms"]["p99_ms"],
        "makespan_s": totals["makespan_s"],
        "provisioned_power_w": portfolio.get("provisioned_power_w", 0.0),
        "wall_seconds": report.wall_seconds,
    }


def run_benchmark(args: argparse.Namespace) -> dict:
    profile = base_profile(args)
    single = bench_fleet(
        profile, "single-best", portfolio="mixed", portfolio_configs=1
    )
    mixed = bench_fleet(profile, "portfolio-fifo", portfolio="mixed")
    # The Pareto claim: same served windows, no worse p99, strictly less
    # energy than the best homogeneous fleet at equal instance count.
    dominates = (
        mixed["windows_served"] == single["windows_served"]
        and mixed["latency_p99_ms"] <= single["latency_p99_ms"]
        and mixed["energy_j"] + mixed["reconfig_energy_j"] < single["energy_j"]
    )
    return {
        "benchmark": "portfolio-vs-single-config",
        "workload": {
            "forecast": "mixed",
            "num_sessions": profile.num_sessions,
            "num_instances": profile.num_instances,
            "rate_hz": profile.rate_hz,
            "duration_s": profile.duration_s,
            "sequence_duration_s": profile.sequence_duration_s,
            "seed": profile.seed,
        },
        "fleets": [single, mixed],
        "portfolio_dominates_single": dominates,
        "energy_saving_fraction": (
            1.0
            - (mixed["energy_j"] + mixed["reconfig_energy_j"])
            / single["energy_j"]
            if single["energy_j"]
            else 0.0
        ),
        "p99_change_fraction": (
            mixed["latency_p99_ms"] / single["latency_p99_ms"] - 1.0
            if single["latency_p99_ms"]
            else 0.0
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=8)
    parser.add_argument("--instances", type=int, default=4)
    parser.add_argument("--rate", type=float, default=8.0)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--sequence-duration", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_portfolio.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--require-domination",
        action="store_true",
        help="exit non-zero unless the portfolio fleet Pareto-dominates "
        "the single-config fleet",
    )
    args = parser.parse_args()

    report = run_benchmark(args)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for fleet in report["fleets"]:
        mix = " + ".join(
            f"{c['count']}x{c['config_id']}" for c in fleet["configs"]
        ) or "homogeneous"
        print(
            f"{fleet['label']:<20} [{mix}] served={fleet['windows_served']} "
            f"p99={fleet['latency_p99_ms']:.2f} ms "
            f"energy={fleet['energy_j']:.3f} J errors={fleet['errors']}"
        )
    print(
        f"domination: {report['portfolio_dominates_single']} "
        f"(energy {report['energy_saving_fraction']:+.1%} saved, "
        f"p99 {report['p99_change_fraction']:+.1%})"
    )
    print(f"report -> {args.output}")

    if args.require_domination and not report["portfolio_dominates_single"]:
        print("FAIL: portfolio does not dominate the single-config fleet")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
