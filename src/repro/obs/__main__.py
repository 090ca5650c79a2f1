"""CLI: ``python -m repro.obs report <trace.jsonl>`` and
``python -m repro.obs validate <artifact.json>``.

``report`` prints the per-category latency rollup of a JSONL trace;
``validate`` checks a JSON artifact against its schema and exits
nonzero on any problem. The artifact kind is detected from its content:
a ``schema`` marker selects its entry in
:data:`repro.obs.validate.ARTIFACTS` (the help text lists them); anything
else is checked as a Chrome ``trace_event`` export (the gate CI applies
to the serve smoke trace).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.report import render_rollup
from repro.obs.tracer import Trace, validate_chrome_trace
from repro.obs.validate import ARTIFACTS, find_schema


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and validate repro observability artifacts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser(
        "report", help="print a per-category latency rollup of a JSONL trace"
    )
    report.add_argument("trace", metavar="TRACE.jsonl", help="flat JSONL trace file")

    kinds = ", ".join(ARTIFACTS)
    validate = commands.add_parser(
        "validate", help=f"validate a JSON artifact (Chrome trace, {kinds})"
    )
    validate.add_argument(
        "trace", metavar="ARTIFACT.json", help=f"Chrome trace JSON or one of {kinds}"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    path = Path(args.trace)
    if not path.is_file():
        kind = "trace" if args.command == "report" else "artifact"
        print(f"error: no such {kind} file: {path}", file=sys.stderr)
        return 2

    if args.command == "report":
        trace = Trace.from_jsonl(path)
        if not trace.spans:
            print(f"error: {path} holds no spans", file=sys.stderr)
            return 2
        print(render_rollup(trace.spans, title=path.name))
        return 0

    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        print(f"error: {path} is not valid JSON: {error}", file=sys.stderr)
        return 1
    schema = find_schema(data)
    problems = validate_chrome_trace(data) if schema is None else schema.problems(data)
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    if schema is None:
        print(f"{path.name}: valid Chrome trace ({len(data['traceEvents'])} events)")
    else:
        print(f"{path.name}: {schema.summary(data)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
