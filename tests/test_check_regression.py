"""CI's benchmark regression annotations, run against the committed BENCH files.

Every ``check_regression.py`` step in ``.github/workflows/ci.yml`` is
replayed with the committed report as its baseline: against itself it
passes quietly, with its field moved half the threshold the wrong way it
still passes, and moved twice the threshold it warns. A metric path that
leads nowhere exits 2.
"""

import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "benchmarks" / "perf" / "check_regression.py"

_spec = importlib.util.spec_from_file_location("check_regression", CHECKER)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

# Where each metric CI checks lives, found by hand: (container, key).
FIELDS = {
    "backends.batched.lm_solve.stage_ms.solve_ms": lambda r: (
        r["backends"]["batched"]["lm_solve"]["stage_ms"], "solve_ms"
    ),
    "shards.points[num_shards=1,backend=thread].wall_throughput_wps": lambda r: (
        next(
            p for p in r["shards"]["points"]
            if p["num_shards"] == 1 and p["backend"] == "thread"
        ),
        "wall_throughput_wps",
    ),
    "policy.mean_energy_saving": lambda r: (r["policy"], "mean_energy_saving"),
    "fleets[label=portfolio-fifo].energy_j": lambda r: (
        next(f for f in r["fleets"] if f["label"] == "portfolio-fifo"), "energy_j"
    ),
}


def ci_invocations() -> list[list[str]]:
    """The argument lists of every checker step in the CI workflow."""
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    calls = re.findall(
        r"benchmarks/perf/check_regression\.py((?:[^\n]*\\\n)*[^\n]*)", workflow
    )
    return [shlex.split(call.replace("\\\n", " ")) for call in calls]


def option(args: list[str], name: str) -> str:
    return args[args.index(name) + 1]


def check(args: list[str], tmp_path: Path, worsen_by: float = 0.0, metric=None) -> int:
    """Run ``args`` on the committed baseline and a current copy whose
    metric is ``worsen_by`` thresholds worse; the checker's exit code."""
    committed = REPO_ROOT / option(args, "--baseline").replace(".baseline", "")
    report = json.loads(committed.read_text())
    holder, key = FIELDS[option(args, "--metric")](report)
    step = worsen_by * float(option(args, "--threshold"))
    step *= 1.0 if "--absolute" in args else abs(holder[key])
    holder[key] += -step if "--higher-is-better" in args else step
    current = tmp_path / "current.json"
    current.write_text(json.dumps(report))
    args = [*args]
    args[args.index("--baseline") + 1] = str(committed)
    args[args.index("--current") + 1] = str(current)
    if metric is not None:
        args[args.index("--metric") + 1] = metric
    return checker.main(args)


def test_ci_checks_every_tracked_metric():
    assert sorted(option(args, "--metric") for args in ci_invocations()) == sorted(FIELDS)


@pytest.mark.parametrize(
    "args", ci_invocations(), ids=lambda args: option(args, "--metric")
)
@pytest.mark.parametrize(
    "worsen_by, warns", [(0.0, False), (0.5, False), (2.0, True)],
    ids=["self", "inside-budget", "past-budget"],
)
def test_ci_invocation_verdicts(args, worsen_by, warns, tmp_path, capsys):
    assert check(args, tmp_path, worsen_by) == 0
    out = capsys.readouterr().out
    assert ("::warning" in out) == warns, out


@pytest.mark.parametrize(
    "report, metric",
    [
        ("BENCH_estimator", "backends.batched.lm_solve.stage_ms.no_such_ms"),
        ("BENCH_portfolio", "fleets[label=no-such-fleet].energy_j"),
        ("BENCH_serve", "shards.points[num_shards=1,backend=thread]"),
        ("BENCH_serve", "policy.digest"),
        ("BENCH_serve", "policy..mean_energy_saving"),
    ],
)
def test_unresolvable_path_exits_two(report, metric, tmp_path, capsys):
    args = next(a for a in ci_invocations() if option(a, "--current") == f"{report}.json")
    assert check(args, tmp_path, metric=metric) == 2
    assert capsys.readouterr().out.startswith("::error::")
