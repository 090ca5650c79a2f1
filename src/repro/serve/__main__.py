"""CLI: ``python -m repro.serve [profile]`` runs the serving tier.

Runs one named load profile (seeded, bit-deterministic) against a pool
of simulated accelerator instances and writes the virtual-time metrics
to ``SERVE_METRICS.json``. Profile knobs — fleet shape, horizon, seed —
can be overridden from the command line; the overridden profile is
recorded verbatim in the metrics file, so a run is always replayable
from its own output.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.engine import DEFAULT_CACHE_DIR, Engine, configure
from repro.errors import ConfigurationError, ServeError
from repro.serve.accelerator import FIDELITIES
from repro.serve.backend import BACKENDS
from repro.serve.fleet import run_fleet
from repro.serve.loadgen import available_profiles, resolve_profile
from repro.serve.service import LocalizationService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve many localization sessions on an accelerator pool.",
    )
    parser.add_argument(
        "profile",
        nargs="?",
        default="smoke",
        help="load profile to run (default: smoke; see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="print registered load profiles and exit"
    )
    parser.add_argument(
        "--sessions", type=int, metavar="N", help="override the session count"
    )
    parser.add_argument(
        "--instances", type=int, metavar="N", help="override the accelerator pool size"
    )
    parser.add_argument(
        "--duration",
        type=float,
        metavar="S",
        help="override the virtual-time arrival horizon (seconds)",
    )
    parser.add_argument(
        "--batch-size", type=int, metavar="N", help="override the micro-batch cap"
    )
    parser.add_argument("--seed", type=int, metavar="N", help="override the seed")
    parser.add_argument(
        "--portfolio",
        metavar="FORECAST",
        help="solve a repro.portfolio fleet for this traffic forecast and "
        "deploy its mixed configs across the instances",
    )
    parser.add_argument(
        "--policy",
        metavar="SOURCE",
        help="learned runtime control: a frozen POLICY.json artifact "
        "path, or a registered train-spec name (e.g. 'default') "
        "resolved through the engine cache; omit for the 2-bit counter "
        "+ fixed-regime baseline",
    )
    parser.add_argument(
        "--reconfig-after",
        type=int,
        metavar="N",
        help="partially reconfigure an instance after N consecutive "
        "drifting batches (requires --portfolio; 0 disables)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="shard sessions across N shared-nothing schedulers via "
        "consistent hashing (default: 1, the single-queue service)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="thread",
        help="where NLS numerics run: in-process on the event-loop thread "
        "(the oracle) or forked worker processes (true multicore); metrics "
        "are byte-identical either way",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="worker processes per shard for --backend process (default: "
        "the shard's instance count); the thread backend runs in-process",
    )
    parser.add_argument(
        "--drain",
        type=int,
        action="append",
        default=[],
        metavar="SHARD",
        help="mark a shard drained/failed; its sessions rehash "
        "deterministically onto the survivors (repeatable)",
    )
    parser.add_argument(
        "--fidelity",
        choices=FIDELITIES,
        default="analytical",
        help="service-time model: closed-form latency or cycle-level replay",
    )
    parser.add_argument(
        "--output",
        default="SERVE_METRICS.json",
        metavar="PATH",
        help="metrics file to write (default: SERVE_METRICS.json)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="export the virtual-time span trace as JSONL",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="export the span trace as Chrome trace_event JSON",
    )
    parser.add_argument(
        "--obs-metrics",
        metavar="PATH",
        help="export counters/gauges/histograms as canonical OBS_METRICS.json",
    )
    parser.add_argument(
        "--cache-dir",
        default=str(DEFAULT_CACHE_DIR),
        metavar="PATH",
        help=f"artifact cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk artifact cache (in-process memo stays on)",
    )
    return parser


def _apply_overrides(profile, args):
    overrides = {
        "num_sessions": args.sessions,
        "num_instances": args.instances,
        "duration_s": args.duration,
        "batch_size": args.batch_size,
        "seed": args.seed,
        "portfolio": args.portfolio,
        "reconfig_after": args.reconfig_after,
        "policy": args.policy,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(profile, **overrides) if overrides else profile


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name in available_profiles():
            print(name)
        return 0

    # configure() also honors REPRO_NO_CACHE; metrics are identical with
    # the disk cache on or off.
    engine = configure(cache_dir=args.cache_dir, use_disk=not args.no_cache)
    use_disk = engine.cache is not None
    try:
        profile = _apply_overrides(resolve_profile(args.profile), args)
        if args.shards == 1 and not args.drain:
            report = LocalizationService(
                profile,
                engine=engine,
                fidelity=args.fidelity,
                backend=args.backend,
                workers=args.workers,
            ).run()
        else:
            # Shards must share nothing: each gets its own engine (same
            # disk cache is fine — artifacts are content-addressed).
            report = run_fleet(
                profile,
                args.shards,
                backend=args.backend,
                workers=args.workers,
                fidelity=args.fidelity,
                drained=frozenset(args.drain),
                engine_factory=lambda: Engine(cache_dir=args.cache_dir, use_disk=use_disk),
            )
    except (ConfigurationError, ServeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    path = report.write_metrics(args.output)
    print(f"metrics -> {path}")
    if args.trace:
        print(f"trace -> {report.write_trace(args.trace)}")
    if args.chrome_trace:
        print(f"chrome trace -> {report.write_chrome_trace(args.chrome_trace)}")
    if args.obs_metrics:
        print(f"obs metrics -> {report.write_obs_metrics(args.obs_metrics)}")
    cache_line = getattr(report, "cache_line", None)
    if cache_line:  # fleet runs keep per-shard engines; no single line
        print(cache_line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
