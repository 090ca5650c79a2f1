"""CLI: ``python -m repro.testing`` — the CI conformance gate.

Runs the full differential-oracle x workload matrix, writes the
``CONFORMANCE.json`` artifact, and exits nonzero on any mismatch.
``--perturb ORACLE`` deliberately skews that oracle's inputs — the run
must then fail, which is the built-in proof that the gate detects
disagreement rather than passing vacuously.

``--scenarios`` switches the workload axis to the degenerate-regime
grid: every oracle x every scenario x every named design point
(:data:`repro.testing.oracles.DESIGN_POINTS`), written as the per-cell
``SCENARIOS.json`` artifact (validate with
``python -m repro.obs validate SCENARIOS.json``).

``--policy-eval`` runs the learned-controller differential eval
instead: the frozen runtime policy must Pareto-dominate the counter +
fixed-regime baseline on the drift-vs-energy plane for every eval
profile (writes ``POLICY_EVAL.json`` and the frozen ``POLICY.json``).
It runs on the default engine, whose disk cache is on unless
``REPRO_NO_CACHE`` is set.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError
from repro.testing.conformance import (
    DEFAULT_WORKLOADS,
    QUICK_WORKLOADS,
    run_conformance,
)
from repro.testing.oracles import ORACLES
from repro.testing.scenario_matrix import (
    DEFAULT_MATRIX_SCENARIOS,
    run_scenario_matrix,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description="Run the cross-layer differential conformance matrix.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the fast CI matrix (smaller scales, same oracles)",
    )
    parser.add_argument(
        "--scenarios",
        action="store_true",
        help="run the oracle x scenario x design-point matrix instead of "
        "the oracle x workload matrix (writes SCENARIOS.json)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="restrict the --scenarios grid to one scenario (repeatable); "
        f"default: {list(DEFAULT_MATRIX_SCENARIOS)}",
    )
    parser.add_argument(
        "--policy-eval",
        action="store_true",
        help="run the learned-controller differential eval instead of the "
        "conformance matrix (writes POLICY_EVAL.json + POLICY.json)",
    )
    parser.add_argument(
        "--policy",
        default="default",
        metavar="SOURCE",
        help="policy for --policy-eval: a registered PolicyTrainSpec name "
        "(trained through the engine) or a frozen *.json artifact path "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--policy-artifact",
        default="POLICY.json",
        metavar="PATH",
        help="where --policy-eval freezes the policy artifact the learned "
        "runs load (default: %(default)s)",
    )
    parser.add_argument(
        "--oracle",
        action="append",
        choices=sorted(ORACLES),
        metavar="NAME",
        help=f"restrict to one oracle (repeatable); choices: {sorted(ORACLES)}",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="where to write the JSON report (default: CONFORMANCE.json, "
        "or SCENARIOS.json under --scenarios)",
    )
    parser.add_argument(
        "--perturb",
        default=None,
        metavar="ORACLE",
        help="deliberately skew one oracle's inputs ('all' for every "
        "oracle); the run must then fail — a self-test of the gate",
    )
    parser.add_argument(
        "--perturbation",
        type=float,
        default=0.05,
        metavar="EPS",
        help="relative size of the --perturb skew (default: 0.05)",
    )
    return parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.scenario and not args.scenarios:
        print("error: --scenario requires --scenarios", file=sys.stderr)
        return 2
    if args.policy_eval and args.scenarios:
        print("error: --policy-eval and --scenarios are exclusive", file=sys.stderr)
        return 2
    try:
        if args.policy_eval:
            from repro.testing.policy_eval import run_policy_eval

            run = run_policy_eval(
                policy=args.policy, policy_output=args.policy_artifact
            )
            output = args.output or "POLICY_EVAL.json"
        elif args.scenarios:
            run = run_scenario_matrix(
                scenarios=tuple(args.scenario) if args.scenario else None,
                oracle_names=tuple(args.oracle) if args.oracle else None,
                quick=args.quick,
                perturb=args.perturb,
                perturbation=args.perturbation,
            )
            output = args.output or "SCENARIOS.json"
        else:
            run = run_conformance(
                workloads=QUICK_WORKLOADS if args.quick else DEFAULT_WORKLOADS,
                oracle_names=tuple(args.oracle) if args.oracle else None,
                perturb=args.perturb,
                perturbation=args.perturbation,
            )
            output = args.output or "CONFORMANCE.json"
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    path = run.write_json(output)
    for line in run.summary_lines():
        print(line)
    print(f"report written to {path}")
    return 0 if run.passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
