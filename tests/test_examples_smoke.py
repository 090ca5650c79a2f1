"""Smoke test: every entry point a reader can run exits cleanly.

Covers the example scripts plus the module CLIs
(``python -m repro.experiments`` / ``repro.synth``), each executed as a
real subprocess with REPRO_EXAMPLE_DURATION shortened so the
estimator-driven ones stay quick, and the engine cache pointed at a
throwaway directory so runs never leak state into the repo. The
``--no-cache`` path is exercised both through the experiments flag and
through the ``REPRO_NO_CACHE`` environment analogue the flagless
examples honor.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def run_entry_point(argv, tmp_path, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_EXAMPLE_DURATION"] = "3.0"
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["MPLBACKEND"] = "Agg"  # headless, should any example ever plot
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def assert_clean(completed, name):
    assert completed.returncode == 0, (
        f"{name} failed:\n{completed.stdout}\n{completed.stderr}"
    )
    assert completed.stdout.strip(), f"{name} printed nothing"


def test_examples_discovered():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(script, tmp_path):
    completed = run_entry_point([str(script)], tmp_path)
    assert_clean(completed, script.name)


def test_example_runs_without_disk_cache(tmp_path):
    """REPRO_NO_CACHE=1 is the --no-cache of flagless entry points: the
    run succeeds and the cache directory is never created."""
    script = REPO_ROOT / "examples" / "quickstart.py"
    completed = run_entry_point(
        [str(script)], tmp_path, extra_env={"REPRO_NO_CACHE": "1"}
    )
    assert_clean(completed, script.name)
    assert not (tmp_path / "cache").exists()


class TestModuleEntryPoints:
    def test_experiments_list(self, tmp_path):
        completed = run_entry_point(["-m", "repro.experiments", "--list"], tmp_path)
        assert_clean(completed, "repro.experiments --list")
        ids = completed.stdout.split()
        assert "fig11" in ids and len(ids) >= 10

    def test_experiments_no_cache_run(self, tmp_path):
        completed = run_entry_point(
            ["-m", "repro.experiments", "sec33", "--no-cache"], tmp_path
        )
        assert_clean(completed, "repro.experiments sec33 --no-cache")
        assert "disk: disabled" in completed.stdout
        assert not (tmp_path / "cache").exists()

    def test_experiments_unknown_id_exits_two(self, tmp_path):
        completed = run_entry_point(
            ["-m", "repro.experiments", "fig99", "--no-cache"], tmp_path
        )
        assert completed.returncode == 2
        assert "fig99" in completed.stderr

    def test_synth_cli_prints_design(self, tmp_path):
        completed = run_entry_point(
            ["-m", "repro.synth", "--latency-ms", "40"], tmp_path
        )
        assert_clean(completed, "repro.synth")
        assert "design" in completed.stdout and "power" in completed.stdout

    def test_synth_cli_infeasible_exits_one(self, tmp_path):
        completed = run_entry_point(
            ["-m", "repro.synth", "--latency-ms", "0.0001"], tmp_path
        )
        assert completed.returncode == 1
        assert "infeasible" in completed.stderr


class TestServeCli:
    """``python -m repro.serve``: the multi-session serving tier."""

    ARGS = [
        "-m",
        "repro.serve",
        "smoke",
        "--sessions",
        "2",
        "--duration",
        "1.0",
    ]

    def test_list_profiles(self, tmp_path):
        completed = run_entry_point(["-m", "repro.serve", "--list"], tmp_path)
        assert_clean(completed, "repro.serve --list")
        names = completed.stdout.split()
        assert "smoke" in names and "overload" in names

    def test_smoke_run_writes_metrics(self, tmp_path):
        output = tmp_path / "SERVE_METRICS.json"
        completed = run_entry_point([*self.ARGS, "--output", str(output)], tmp_path)
        assert_clean(completed, "repro.serve smoke")
        assert "p99" in completed.stdout
        metrics = json.loads(output.read_text())
        assert metrics["totals"]["errors"] == 0
        assert metrics["totals"]["windows_served"] > 0

    def test_no_cache_flag_and_env_agree(self, tmp_path):
        """--no-cache and REPRO_NO_CACHE both disable the disk cache and
        produce byte-identical metrics (the cache never affects results)."""
        via_flag = tmp_path / "flag.json"
        completed = run_entry_point(
            [*self.ARGS, "--no-cache", "--output", str(via_flag)], tmp_path
        )
        assert_clean(completed, "repro.serve --no-cache")
        assert "disk: disabled" in completed.stdout
        assert not (tmp_path / "cache").exists()

        via_env = tmp_path / "env.json"
        completed = run_entry_point(
            [*self.ARGS, "--output", str(via_env)],
            tmp_path,
            extra_env={"REPRO_NO_CACHE": "1"},
        )
        assert_clean(completed, "repro.serve REPRO_NO_CACHE=1")
        assert not (tmp_path / "cache").exists()
        assert via_flag.read_bytes() == via_env.read_bytes()

    def test_worker_count_below_one_exits_two(self, tmp_path):
        output = tmp_path / "SERVE_METRICS.json"
        completed = run_entry_point(
            [
                *self.ARGS,
                "--no-cache",
                "--backend",
                "process",
                "--workers",
                "-3",
                "--output",
                str(output),
            ],
            tmp_path,
        )
        assert completed.returncode == 2
        assert "error: workers must be >= 1, got -3" in completed.stderr
        assert not output.exists()

    def test_unknown_profile_exits_two_with_suggestion(self, tmp_path):
        completed = run_entry_point(
            ["-m", "repro.serve", "smokey", "--no-cache"], tmp_path
        )
        assert completed.returncode == 2
        assert "smokey" in completed.stderr
        assert "did you mean" in completed.stderr


class TestObsCli:
    """``python -m repro.obs``: trace report + Chrome schema validation,
    fed by a real serve run's exports."""

    def _serve_with_exports(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        obs = tmp_path / "OBS_METRICS.json"
        completed = run_entry_point(
            [
                "-m",
                "repro.serve",
                "smoke",
                "--sessions",
                "2",
                "--duration",
                "1.0",
                "--no-cache",
                "--output",
                str(tmp_path / "SERVE_METRICS.json"),
                "--trace",
                str(trace),
                "--chrome-trace",
                str(chrome),
                "--obs-metrics",
                str(obs),
            ],
            tmp_path,
        )
        assert_clean(completed, "repro.serve with trace exports")
        return trace, chrome, obs

    def test_serve_exports_then_report_and_validate(self, tmp_path):
        trace, chrome, obs = self._serve_with_exports(tmp_path)
        assert trace.exists() and chrome.exists() and obs.exists()
        assert json.loads(obs.read_text())["counters"][
            "serve_windows_served_total"
        ] > 0

        report = run_entry_point(["-m", "repro.obs", "report", str(trace)], tmp_path)
        assert_clean(report, "repro.obs report")
        assert "serve" in report.stdout and "service" in report.stdout

        validate = run_entry_point(
            ["-m", "repro.obs", "validate", str(chrome)], tmp_path
        )
        assert_clean(validate, "repro.obs validate")
        assert "valid Chrome trace" in validate.stdout

    def test_report_missing_file_exits_two(self, tmp_path):
        completed = run_entry_point(
            ["-m", "repro.obs", "report", str(tmp_path / "nope.jsonl")], tmp_path
        )
        assert completed.returncode == 2
