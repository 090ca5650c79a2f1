"""Mutation table for ``repro.obs.validate``: every schema check bites.

One valid fixture per artifact kind: the committed ``POLICY.json`` and
``POLICY_EVAL.json``, a solved ``PORTFOLIO.json`` report, a two-cell
``CONFORMANCE.json`` report and a quick scenario-matrix
``SCENARIOS.json`` report. Each mutant breaks one check
(type, missing key, empty list, enum, bound, cross-field, digest) and
must be rejected. ``POLICY.json`` mutants are re-digested unless they
edit the digest, so each one reaches the rule it targets instead of
failing on the digest; a policy ``ControllerPolicy.load`` refuses must
be rejected too.
"""

import copy
import functools
import json
import operator
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.obs.__main__ import main as obs_main
from repro.obs.validate import ARTIFACTS, find_schema
from repro.runtime.policy import ControllerPolicy, _digest

REPO_ROOT = Path(__file__).resolve().parent.parent
DROP = object()  # edit value: delete the key


def conformance_report(**kwargs) -> dict:
    """A conformance run on the tiny quick workload, as its JSON reads."""
    from repro.testing import QUICK_WORKLOADS, run_conformance

    run = run_conformance(workloads=QUICK_WORKLOADS[:1], **kwargs)
    return json.loads(json.dumps(run.to_dict()))


@pytest.fixture(scope="module")
def artifacts():
    from repro.portfolio import default_portfolio_spec, solve_portfolio
    from repro.portfolio.__main__ import portfolio_report
    from repro.testing.scenario_matrix import run_scenario_matrix

    run = run_scenario_matrix(
        scenarios=("tunnel", "highway"), oracle_names=("functional",), quick=True
    )
    solution = solve_portfolio(default_portfolio_spec("mixed", num_instances=4))
    return {
        "CONFORMANCE.json": conformance_report(oracle_names=("functional", "trace")),
        "SCENARIOS.json": json.loads(json.dumps(run.to_dict())),
        "PORTFOLIO.json": json.loads(json.dumps(portfolio_report(solution))),
        "POLICY.json": json.loads((REPO_ROOT / "POLICY.json").read_text()),
        "POLICY_EVAL.json": json.loads((REPO_ROOT / "POLICY_EVAL.json").read_text()),
    }


def mutate(name: str, base: dict, edits: dict) -> object:
    """A deep copy of ``base`` with ``edits`` applied.

    Keys are dot paths (digits index lists; ``""`` replaces the whole
    document); a value is the new value, ``DROP``, or a function of the
    old value.
    """
    data = copy.deepcopy(base)
    for path, value in edits.items():
        if not path:
            return value
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        target = functools.reduce(operator.getitem, parents, data)
        if value is DROP:
            del target[last]
        else:
            target[last] = value(target[last]) if callable(value) else value
    if name == "POLICY.json" and "digest" not in edits:
        data["digest"] = _digest({k: v for k, v in data.items() if k != "digest"})
    return data


def _fields(name: str, prefix: str, wrong: dict) -> list:
    """One missing-key and one wrong-type mutant per field of a row."""
    return [
        (name, f"{prefix}{key}-missing", {f"{prefix}{key}": DROP}) for key in wrong
    ] + [
        (name, f"{prefix}{key}-type", {f"{prefix}{key}": value})
        for key, value in wrong.items()
    ]


def _split_first_entry(entries):
    """Entry 0 split in two with one config id: counts still sum up."""
    first = entries[0]
    assert first["count"] >= 2
    return [{**first, "count": 1}, {**first, "count": first["count"] - 1}, *entries[1:]]


MUTANTS = [
    *[
        (name, label, edits)
        for name in ARTIFACTS
        for label, edits in (
            ("not-an-object", {"": []}),
            ("schema-missing", {"schema": DROP}),
            ("schema-foreign", {"schema": "repro.other/v1"}),
            ("schema-type", {"schema": 1}),
        )
    ],
    # CONFORMANCE.json
    ("CONFORMANCE.json", "passed-type", {"passed": "yes"}),
    ("CONFORMANCE.json", "passed-missing", {"passed": DROP}),
    ("CONFORMANCE.json", "checks-type", {"checks": "8"}),
    ("CONFORMANCE.json", "checks-bool", {"checks": True}),
    ("CONFORMANCE.json", "checks-missing", {"checks": DROP}),
    ("CONFORMANCE.json", "mismatches-type", {"mismatches": []}),
    ("CONFORMANCE.json", "mismatches-missing", {"mismatches": DROP}),
    ("CONFORMANCE.json", "reports-empty", {"reports": []}),
    ("CONFORMANCE.json", "reports-type", {"reports": "reports"}),
    ("CONFORMANCE.json", "reports-missing", {"reports": DROP}),
    ("CONFORMANCE.json", "report-not-object", {"reports.0": 5}),
    *_fields("CONFORMANCE.json", "reports.0.", {
        "oracle": 1, "workload": "", "passed": "yes", "checks": 8.0,
        "mismatches": {}, "seconds": "0.1",
    }),
    ("CONFORMANCE.json", "passed-report-lists-mismatches",
     {"reports.0.mismatches": ["x"], "mismatches": 1}),
    ("CONFORMANCE.json", "aggregate-passed-contradicts", {"passed": False}),
    ("CONFORMANCE.json", "failed-report-under-pass", {"reports.0.passed": False}),
    ("CONFORMANCE.json", "checks-sum-mismatch", {"checks": lambda c: c + 1}),
    ("CONFORMANCE.json", "mismatches-sum-mismatch", {"mismatches": 1}),
    # SCENARIOS.json
    ("SCENARIOS.json", "passed-type", {"passed": "yes"}),
    ("SCENARIOS.json", "passed-missing", {"passed": DROP}),
    ("SCENARIOS.json", "cells-empty", {"cells": []}),
    ("SCENARIOS.json", "cells-type", {"cells": "cells"}),
    ("SCENARIOS.json", "cell-not-object", {"cells.0": 5}),
    *_fields("SCENARIOS.json", "cells.0.", {
        "oracle": 1, "scenario": 1, "design_point": 1, "workload": 1,
        "passed": "yes", "checks": "8", "mismatches": {}, "seconds": "0.1",
    }),
    ("SCENARIOS.json", "passed-cell-lists-mismatches", {"cells.0.mismatches": ["x"]}),
    ("SCENARIOS.json", "aggregate-passed-contradicts", {"passed": False}),
    ("SCENARIOS.json", "failed-cell-under-pass", {"cells.0.passed": False}),
    ("SCENARIOS.json", "scenarios-type", {"scenarios": "tunnel"}),
    ("SCENARIOS.json", "scenarios-missing", {"scenarios": DROP}),
    ("SCENARIOS.json", "scenarios-mismatch", {"scenarios": ["tunnel"]}),
    ("SCENARIOS.json", "design-points-type", {"design_points": "dp-small"}),
    ("SCENARIOS.json", "design-points-mismatch", {"design_points": ["dp-small"]}),
    ("SCENARIOS.json", "obs-type", {"obs": []}),
    ("SCENARIOS.json", "obs-missing", {"obs": DROP}),
    *[
        ("SCENARIOS.json", f"obs-{section}-missing", {f"obs.{section}": DROP})
        for section in ("counters", "gauges", "histograms")
    ],
    ("SCENARIOS.json", "cells-total-counter",
     {"obs.counters.scenario_matrix_cells_total": 999.0}),
    # PORTFOLIO.json
    ("PORTFOLIO.json", "name-missing", {"name": DROP}),
    ("PORTFOLIO.json", "name-empty", {"name": ""}),
    ("PORTFOLIO.json", "name-type", {"name": 5}),
    ("PORTFOLIO.json", "objective-enum", {"objective": "power"}),
    ("PORTFOLIO.json", "objective-missing", {"objective": DROP}),
    ("PORTFOLIO.json", "slo-met-type", {"slo_met": "yes"}),
    ("PORTFOLIO.json", "slo-met-missing", {"slo_met": DROP}),
    *[
        ("PORTFOLIO.json", f"{key}-{label}", {key: value})
        for key in (
            "expected_energy_per_window_j", "expected_latency_s", "provisioned_power_w"
        )
        for label, value in (("type", "x"), ("bool", True), ("negative", -1.0), ("missing", DROP))
    ],
    ("PORTFOLIO.json", "entries-empty", {"entries": []}),
    ("PORTFOLIO.json", "entries-type", {"entries": "entries"}),
    ("PORTFOLIO.json", "entry-not-object", {"entries.0": 5}),
    *_fields("PORTFOLIO.json", "entries.0.", {
        "config_id": 3, "count": "3", "nd": 2.0, "nm": True, "s": "4",
        "power_w": "1.4", "utilization": None, "assigned_regimes": "tunnel",
    }),
    ("PORTFOLIO.json", "entry-count-bool", {"entries.0.count": True}),
    ("PORTFOLIO.json", "entry-count-zero", {"entries.0.count": 0}),
    ("PORTFOLIO.json", "entry-repeats-config", {"entries": _split_first_entry}),
    ("PORTFOLIO.json", "num-instances-zero", {"num_instances": 0}),
    ("PORTFOLIO.json", "num-instances-bool", {"num_instances": True}),
    ("PORTFOLIO.json", "num-instances-type", {"num_instances": "4"}),
    ("PORTFOLIO.json", "num-instances-missing", {"num_instances": DROP}),
    ("PORTFOLIO.json", "counts-sum-mismatch", {"num_instances": 5}),
    ("PORTFOLIO.json", "assignment-type", {"assignment": []}),
    ("PORTFOLIO.json", "assignment-missing", {"assignment": DROP}),
    ("PORTFOLIO.json", "assignment-value-type", {"assignment.tunnel": 3}),
    ("PORTFOLIO.json", "assignment-unknown-config", {"assignment.tunnel": "nd9-nm9-s9"}),
    # POLICY.json (re-digested unless the digest is the edit)
    ("POLICY.json", "name-missing", {"name": DROP}),
    ("POLICY.json", "name-empty", {"name": ""}),
    ("POLICY.json", "name-type", {"name": 5}),
    ("POLICY.json", "caps-empty", {"caps": []}),
    ("POLICY.json", "caps-type", {"caps": "1,2"}),
    ("POLICY.json", "caps-item-type", {"caps.1": "2"}),
    ("POLICY.json", "caps-item-bool", {"caps.0": True}),
    ("POLICY.json", "caps-missing", {"caps": DROP}),
    ("POLICY.json", "caps-not-increasing", {"caps": lambda c: [c[1], c[0], *c[2:]]}),
    ("POLICY.json", "caps-below-one", {"caps.0": 0}),
    ("POLICY.json", "error-heads-type", {"error_heads": "heads"}),
    ("POLICY.json", "error-heads-missing", {"error_heads": DROP}),
    ("POLICY.json", "error-heads-count", {"error_heads": lambda h: h[:-1]}),
    ("POLICY.json", "error-head-type", {"error_heads.0": "head"}),
    ("POLICY.json", "error-head-empty", {"error_heads.0": []}),
    ("POLICY.json", "error-head-weight-type", {"error_heads.0.0": "w"}),
    ("POLICY.json", "error-heads-disagree", {"error_heads.0": lambda h: [*h, 0.0]}),
    ("POLICY.json", "admission-actions-enum",
     {"admission_actions": ["accept", "shed", "degrade"]}),
    ("POLICY.json", "admission-actions-missing", {"admission_actions": DROP}),
    ("POLICY.json", "admission-heads-count", {"admission_heads": lambda h: h[:-1]}),
    ("POLICY.json", "admission-heads-type", {"admission_heads": "heads"}),
    ("POLICY.json", "admission-heads-missing", {"admission_heads": DROP}),
    ("POLICY.json", "admission-head-empty", {"admission_heads.0": []}),
    ("POLICY.json", "admission-head-weight-type", {"admission_heads.0.0": None}),
    ("POLICY.json", "energy-weight-negative", {"energy_weight": -1.0}),
    ("POLICY.json", "energy-weight-type", {"energy_weight": "0.03"}),
    ("POLICY.json", "energy-weight-missing", {"energy_weight": DROP}),
    ("POLICY.json", "drift-alpha-zero", {"drift_alpha": 0.0}),
    ("POLICY.json", "drift-alpha-above-one", {"drift_alpha": 1.5}),
    ("POLICY.json", "drift-alpha-type", {"drift_alpha": "0.2"}),
    ("POLICY.json", "drift-alpha-missing", {"drift_alpha": DROP}),
    ("POLICY.json", "trained-on-type", {"trained_on": "smoke"}),
    ("POLICY.json", "trained-on-missing", {"trained_on": DROP}),
    ("POLICY.json", "digest-length", {"digest": "abc"}),
    ("POLICY.json", "digest-missing", {"digest": DROP}),
    ("POLICY.json", "digest-mismatch", {"digest": "0" * 64}),
    # POLICY_EVAL.json
    ("POLICY_EVAL.json", "passed-type", {"passed": "yes"}),
    ("POLICY_EVAL.json", "passed-missing", {"passed": DROP}),
    ("POLICY_EVAL.json", "policy-type", {"policy": "default"}),
    ("POLICY_EVAL.json", "policy-missing", {"policy": DROP}),
    ("POLICY_EVAL.json", "policy-name-missing", {"policy.name": DROP}),
    ("POLICY_EVAL.json", "policy-name-empty", {"policy.name": ""}),
    ("POLICY_EVAL.json", "policy-digest-type", {"policy.digest": 5}),
    ("POLICY_EVAL.json", "policy-digest-missing", {"policy.digest": DROP}),
    ("POLICY_EVAL.json", "profiles-empty", {"profiles": []}),
    ("POLICY_EVAL.json", "profiles-type", {"profiles": "smoke"}),
    ("POLICY_EVAL.json", "profiles-missing", {"profiles": DROP}),
    ("POLICY_EVAL.json", "profile-not-object", {"profiles.0": 5}),
    ("POLICY_EVAL.json", "profile-name-missing", {"profiles.0.profile": DROP}),
    ("POLICY_EVAL.json", "profile-name-empty", {"profiles.0.profile": ""}),
    ("POLICY_EVAL.json", "dominates-missing", {"profiles.0.dominates": DROP}),
    ("POLICY_EVAL.json", "dominates-type", {"profiles.0.dominates": "yes"}),
    *[
        edit
        for side in ("baseline", "learned")
        for edit in (
            ("POLICY_EVAL.json", f"{side}-missing", {f"profiles.0.{side}": DROP}),
            ("POLICY_EVAL.json", f"{side}-type", {f"profiles.0.{side}": []}),
            *_fields("POLICY_EVAL.json", f"profiles.0.{side}.", {
                "energy_j": "1.3", "mean_drift_m": True, "windows_served": 1.5,
                "windows_shed": True, "deadline_misses": "0", "errors": None,
            }),
        )
    ],
    ("POLICY_EVAL.json", "aggregate-passed-contradicts", {"passed": False}),
    ("POLICY_EVAL.json", "undominated-profile-under-pass", {"profiles.0.dominates": False}),
]


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_fixture_is_valid_and_dispatches_to_its_entry(artifacts, name):
    assert find_schema(artifacts[name]) is ARTIFACTS[name]
    assert ARTIFACTS[name].problems(artifacts[name]) == []


def test_failed_conformance_report_is_valid():
    """A perturbed run fails, and its report is still a well-formed file."""
    report = conformance_report(oracle_names=("backend",), perturb="backend")
    assert report["passed"] is False and report["mismatches"] > 0
    assert ARTIFACTS["CONFORMANCE.json"].problems(report) == []


@pytest.mark.parametrize(
    "name, edits", [(name, edits) for name, _, edits in MUTANTS],
    ids=[f"{name}-{label}" for name, label, _ in MUTANTS],
)
def test_every_check_rejects_its_mutant(artifacts, name, edits):
    mutant = mutate(name, artifacts[name], edits)
    assert ARTIFACTS[name].problems(mutant) != []


# Re-digested copies of the committed POLICY.json that a structure-only
# check passed although ControllerPolicy.load refuses them.
UNLOADABLE_POLICIES = {
    "cap-above-max-iterations": {"caps": lambda c: [*c[:-1], 8]},
    "error-heads-too-wide": {"error_heads": lambda hs: [[*h, 0.0] for h in hs]},
    "admission-heads-too-narrow": {"admission_heads": lambda hs: [h[:-1] for h in hs]},
}


@pytest.mark.parametrize("case", list(UNLOADABLE_POLICIES))
def test_policy_the_loader_rejects_is_invalid(artifacts, case, tmp_path, capsys):
    policy = mutate("POLICY.json", artifacts["POLICY.json"], UNLOADABLE_POLICIES[case])
    path = tmp_path / "POLICY.json"
    path.write_text(json.dumps(policy))
    with pytest.raises(ConfigurationError) as refused:
        ControllerPolicy.load(path)
    assert obs_main(["validate", str(path)]) == 1
    assert f"invalid: {refused.value}" in capsys.readouterr().err
