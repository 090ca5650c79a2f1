"""The differential conformance subsystem: oracles, matrix, CLI.

Two families of assertions: (a) the clean tree passes every oracle at
every scale, and (b) every oracle *detects* a deliberately perturbed
input — a gate that cannot fail is not a gate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.testing import (
    DEFAULT_WORKLOADS,
    ORACLES,
    QUICK_WORKLOADS,
    run_conformance,
)
from repro.testing.conformance import ConformanceWorkload

REPO_ROOT = Path(__file__).resolve().parent.parent
SMALL = ConformanceWorkload("small", seed=21, num_keyframes=5, num_features=24, num_windows=12)


class TestOracleMatrix:
    def test_default_matrix_covers_five_oracles_three_scales(self):
        assert len(ORACLES) == 5
        assert len(DEFAULT_WORKLOADS) >= 3
        assert len(QUICK_WORKLOADS) >= 3
        assert len({w.name for w in DEFAULT_WORKLOADS}) >= 3

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    @pytest.mark.parametrize("workload", QUICK_WORKLOADS, ids=lambda w: w.name)
    def test_clean_tree_passes(self, oracle, workload):
        report = ORACLES[oracle](workload)
        assert report.passed, [m.to_dict() for m in report.mismatches]
        assert report.checks > 0
        assert report.oracle == oracle

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_perturbed_input_is_detected(self, oracle):
        """Feeding a skewed input must produce at least one mismatch."""
        report = ORACLES[oracle](SMALL, perturbation=0.05)
        assert not report.passed
        assert report.mismatches[0].tolerance >= 0.0
        assert report.mismatches[0].metric

    def test_reports_are_deterministic(self):
        a = ORACLES["backend"](SMALL)
        b = ORACLES["backend"](SMALL)
        assert a.to_dict()["info"] == b.to_dict()["info"]
        assert a.checks == b.checks


class TestConformanceRun:
    def test_perturbed_run_fails_and_records_target(self):
        run = run_conformance(workloads=(SMALL,), perturb="backend")
        assert not run.passed
        assert run.perturbed == "backend"
        failing = {r.oracle for r in run.reports if not r.passed}
        assert failing == {"backend"}

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ConfigurationError):
            run_conformance(workloads=(SMALL,), oracle_names=("nope",))
        with pytest.raises(ConfigurationError):
            run_conformance(workloads=(SMALL,), perturb="nope")

    def test_json_artifact_schema(self, tmp_path):
        run = run_conformance(workloads=(SMALL,), oracle_names=("functional",))
        path = run.write_json(tmp_path / "CONFORMANCE.json")
        data = json.loads(path.read_text())
        assert data["passed"] is True
        assert data["checks"] == run.total_checks
        assert data["oracles"] == ["functional"]
        report = data["reports"][0]
        assert set(report) >= {"oracle", "workload", "passed", "checks", "mismatches"}


class TestConformanceCli:
    def _run(self, *args: str, cwd: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.testing", *args],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )

    def test_quick_clean_run_exits_zero_and_writes_report(self, tmp_path):
        completed = self._run("--quick", cwd=tmp_path)
        assert completed.returncode == 0, completed.stdout + completed.stderr
        data = json.loads((tmp_path / "CONFORMANCE.json").read_text())
        assert data["passed"] is True
        assert sorted(data["oracles"]) == sorted(ORACLES)
        assert len(data["workloads"]) >= 3

    def test_perturbed_run_exits_nonzero(self, tmp_path):
        completed = self._run(
            "--quick", "--perturb", "fixedpoint", "--oracle", "fixedpoint",
            cwd=tmp_path,
        )
        assert completed.returncode == 1
        data = json.loads((tmp_path / "CONFORMANCE.json").read_text())
        assert data["passed"] is False
        assert data["perturbed"] == "fixedpoint"
        assert data["mismatches"] > 0

    def test_bad_perturb_target_exits_two(self, tmp_path):
        completed = self._run("--perturb", "bogus", cwd=tmp_path)
        assert completed.returncode == 2
        assert "bogus" in completed.stderr
