"""CLI: ``python -m repro.experiments [ids...|all]`` prints the tables.

The heavy lifting runs through the :mod:`repro.engine` execution
engine: ``--cache-dir`` relocates the on-disk artifact cache, and
``--no-cache`` bypasses the disk entirely (results are identical either
way — the cache stores bit-exact artifacts). Experiments run one after
another in the requested order. A cache summary line is printed at the
end of every invocation, so a second run of the same experiments
visibly hits the cache.
"""

from __future__ import annotations

import argparse
import sys

from repro.engine import DEFAULT_CACHE_DIR, configure
from repro.errors import ConfigurationError
from repro.experiments.registry import available_experiments, run_experiments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        default=[],
        metavar="id",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="print registered experiment ids and exit"
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


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0

    engine = configure(cache_dir=args.cache_dir, use_disk=not args.no_cache)
    requested = args.ids or ["all"]
    ids = available_experiments() if requested == ["all"] else requested
    try:
        results = run_experiments(ids)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for result in results:
        print(result.render())
        print()
    print(engine.stats_line())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
