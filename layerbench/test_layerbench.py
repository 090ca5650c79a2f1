"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest layerbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Per-layer metrics that must be non-zero on each workload's tiny run:
# the layers that workload actually drives from the parent process.
APPLIES = {
    "estimator-catalog": {
        "engine.sequence.calls",
        "slam.step.calls",
        "slam.lm.busy_s",
        "slam.lm.iterations",
        "slam.lm.linearize_s",
        "linalg.solve_s",
        "linalg.plan_cache.plans",
        "hw.charge.calls",
    },
    "serve-steady": {
        "engine.sequence.calls",
        "slam.step.calls",
        "slam.lm.busy_s",
        "linalg.solve_s",
        "serve.loop_s",
        "serve.loop_self_s",
        "serve.scheduler.submitted",
        "serve.backend.run_jobs.calls",
        "runtime.decide.calls",
        "hw.charge.calls",
    },
    "serve-overload": {
        "engine.sequence.calls",
        "serve.loop_s",
        "serve.scheduler.submitted",
        "serve.backend.run_jobs.calls",
        "serve.fleet.merge_s",
        "serve.fleet.shard_loop_s_max",
        "serve.fleet.shard_imbalance",
        "runtime.decide.calls",
        "hw.charge.calls",
    },
}


def _attributes():
    return [
        (target.owner, target.attr, vars(target.owner)[target.attr])
        for target in workloads.LAYER_TARGETS
    ]


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = [name for name, _ in workloads.END_TO_END + workloads.PER_LAYER]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in workloads.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in workloads.PER_LAYER]
    units = dict(workloads.END_TO_END + workloads.PER_LAYER)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_untraced_run_emits_every_end_to_end_metric(workload):
    before = _attributes()
    result = workloads.run_workload(workload, workloads.DEFAULT_SEED, 0.0, False, size="tiny")
    assert _attributes() == before
    assert result.failed == 0, result.lines
    assert list(result.metrics) == [name for name, _ in workloads.END_TO_END]
    assert all(value > 0 for value, _ in result.metrics.values()), result.metrics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric_and_restores(workload):
    before = _attributes()
    result = workloads.run_workload(workload, workloads.HELDOUT_SEED, 0.0, True, size="tiny")
    after = _attributes()
    assert all(a[2] is b[2] for a, b in zip(before, after))
    assert result.failed == 0, result.lines
    assert list(result.metrics) == [name for name, _ in workloads.PER_LAYER]
    zero = [name for name in APPLIES[workload] if result.metrics[name][0] <= 0]
    assert not zero, zero
    assert 0.0 <= result.metrics["trace.residual_frac"][0] < 1.0


def test_wrappers_are_restored_when_the_traced_call_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with tracing.Tracer(list(workloads.LAYER_TARGETS)):
            raise RuntimeError("boom")
    assert all(a[2] is b[2] for a, b in zip(before, _attributes()))


def test_self_time_and_residual_arithmetic():
    span = tracing.Span
    root = span(0, "phase.serve", 0.0, 10.0, None, 1)
    loop = span(1, "serve.loop", 0.0, 10.0, 0, 1)
    a = span(2, "a", 1.0, 4.0, 1, 1)
    b = span(3, "b", 3.0, 6.0, 1, 2)  # overlaps a on another thread
    prep = span(4, "serve.prepare", 8.0, 9.0, 1, 1)
    spans = [root, loop, a, b, prep]
    table = tracing.self_times(spans)
    assert table["serve.loop"] == (1, 10.0, 10.0 - 6.0)
    assert table["a"] == (1, 3.0, 3.0)
    # Phase time 10 - 1 (prepare) = 9, of which [1, 6] is covered.
    residual = tracing.residual_fraction(
        root, spans, frozenset({"phase.serve", "serve.loop"}), frozenset({"serve.prepare"})
    )
    assert residual == pytest.approx(4.0 / 9.0)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [*command, "--workload", "serve-steady", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
