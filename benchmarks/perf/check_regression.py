#!/usr/bin/env python
"""Non-gating regression check of one field of a benchmark report.

Reads the number at ``--metric`` in a baseline and a current JSON report
(CI passes the committed ``BENCH_*.json`` and a fresh run) and emits a
GitHub Actions ``::warning::`` annotation — *not* a failure — when the
current value is worse than the baseline by more than ``--threshold``.
CI runners are noisy machines; the annotation makes a regression loud in
the PR checks without letting runner jitter block merges.

A metric path is dot-separated keys. ``[key=value,...]`` after a key
picks the first list element whose fields match (compared as text)::

    backends.batched.lm_solve.stage_ms.solve_ms
    shards.points[num_shards=1,backend=thread].wall_throughput_wps
    fleets[label=portfolio-marginal].energy_j

Lower is better unless ``--higher-is-better``. The change is relative to
the baseline (0.25 = 25%) unless ``--absolute``, which compares plain
differences (0.02 = 2 percentage points of a fraction).

Usage::

    python benchmarks/perf/check_regression.py \
        --baseline BENCH_serve.baseline.json --current BENCH_serve.json \
        --metric 'shards.points[num_shards=1,backend=thread].wall_throughput_wps' \
        --higher-is-better --threshold 0.25

Exits 0 whether or not it warns, and 2 when an input is missing or
malformed or the path does not lead to a number: a broken harness should
be visible, a slow runner should not.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# A path step: a key, then an optional ``[k=v,...]`` row selector.
_STEP = re.compile(r"([^.\[\]]+)(?:\[([^\]]+)\])?")


def resolve(report: object, path: str) -> float:
    """The number at ``path`` in ``report``.

    Raises ``LookupError``, ``TypeError`` or ``ValueError`` when the path
    is malformed or leads nowhere or to something other than a number.
    """
    value = report
    for step in re.split(r"\.(?![^\[]*\])", path):
        match = _STEP.fullmatch(step)
        if match is None:
            raise ValueError(f"malformed path step {step!r}")
        key, selector = match.groups()
        value = value[key]
        if selector:
            wanted = [pair.split("=", 1) for pair in selector.split(",")]
            value = next(
                (row for row in value
                 if isinstance(row, dict)
                 and all(str(row.get(k)) == v for k, v in wanted)),
                None,
            )
            if value is None:
                raise LookupError(f"no element of {key!r} matches [{selector}]")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{path} is {value!r}, not a number")
    return float(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument("--metric", required=True, help="field path (see above)")
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="worsening that triggers the warning (default 0.25)",
    )
    parser.add_argument("--higher-is-better", action="store_true")
    parser.add_argument(
        "--absolute", action="store_true",
        help="compare differences rather than changes relative to the baseline",
    )
    args = parser.parse_args(argv)

    try:
        baseline = resolve(json.loads(args.baseline.read_text()), args.metric)
        current = resolve(json.loads(args.current.read_text()), args.metric)
    except (OSError, LookupError, TypeError, ValueError) as error:
        print(f"::error::regression check could not read {args.metric}: {error!r}")
        return 2

    worsening = baseline - current if args.higher_is_better else current - baseline
    summary = f"{args.metric}: baseline {baseline:.4g}, current {current:.4g}"
    if args.absolute:
        summary += f" ({current - baseline:+.4g})"
    elif baseline <= 0.0:
        print(f"::warning::{summary}; baseline is not positive, skipping comparison")
        return 0
    else:
        worsening /= baseline
        summary += f" ({(current - baseline) / baseline:+.1%})"
    if worsening > args.threshold:
        print(
            f"::warning title=benchmark regression::{summary} is worse than the "
            f"{args.threshold:g} budget — investigate before merging"
        )
    else:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
