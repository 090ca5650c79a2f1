#!/usr/bin/env python3
"""Layered end-to-end benchmark of the localization service and estimator.

Run from the repository root::

    python3 layerbench/run.py --workload serve-steady --seed 1 --seconds 35 --trace 0
    python3 layerbench/run.py --workload estimator-catalog --trace 1

Workloads: ``serve-steady``, ``serve-overload``, ``estimator-catalog``
(see ``workloads.py``). ``--trace 0`` reports every end-to-end metric;
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics, each layer's self time, the residual no span covers,
and the tracing overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A run that
fails a correctness check prints ``"correct": false`` and exits 1.

Each run also writes its result (and, traced, its spans as JSONL) under
``.layerbench/`` in the repository root.
"""

import os

# Pin the BLAS/OpenMP pools to one thread before NumPy loads: the serving
# tier already runs one estimator per worker, and oversubscribed BLAS
# threads on a small host make every timing noisy.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".layerbench"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed")
    parser.add_argument("--seconds", type=float, default=35.0, help="time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def environment(args, seed: int, workloads) -> dict:
    """What a result depends on besides the code: seeds, threads, versions."""
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "heldout_seed": workloads.HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
            file=sys.stderr,
        )
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    env = environment(args, seed, workloads)
    result = workloads.run_workload(args.workload, seed, args.seconds, bool(args.trace))
    summary = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }

    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"env": env, "report": result.lines, "result": summary}, indent=2)
        + "\n"
    )
    if result.tracer is not None:
        spans = result.tracer.write_jsonl(OUT_DIR / f"{stem}-spans.jsonl", env)
        result.lines.append(f"spans -> {spans.relative_to(ROOT)}")

    print("env " + json.dumps(env, sort_keys=True))
    for line in result.lines:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
