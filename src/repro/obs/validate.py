"""Schema validation for the JSON artifacts the repro CLIs freeze as evidence.

:data:`ARTIFACTS` holds one :class:`ArtifactSchema` per artifact kind: the
``schema`` prefix that identifies it, a declarative field spec, the
cross-field invariants the spec cannot express, and the one-line summary
``python -m repro.obs validate`` prints for a valid file. One walker
checks every entry, so CI gates each uploaded artifact (``CONFORMANCE.json``,
``SCENARIOS.json``, ``PORTFOLIO.json``, ``POLICY.json``,
``POLICY_EVAL.json``) the same way,
and a half-written or hand-mangled report fails loudly instead of being
archived as evidence.

``POLICY.json`` is checked for structure only; its value rules (cap range,
head widths, digest, ...) belong to
:meth:`repro.runtime.policy.ControllerPolicy.from_dict`, which the policy
entry calls, so no file passes here that the serve tier cannot load.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Callable, Mapping, Union

SCENARIO_SCHEMA_PREFIX = "repro.scenarios/"


@dataclass(frozen=True)
class Is:
    """A leaf field: ``test`` must accept the value, described as ``what``."""

    what: str
    test: Callable[[object], bool]


@dataclass(frozen=True)
class Obj:
    """A JSON object whose listed keys must be present and match their specs."""

    fields: Mapping[str, "Spec"]


@dataclass(frozen=True)
class Rows:
    """A non-empty list of objects, each matching ``fields``."""

    fields: Mapping[str, "Spec"]


Spec = Union[Is, Obj, Rows]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_list_of(value: object, test: Callable[[object], bool]) -> bool:
    return isinstance(value, list) and all(test(item) for item in value)


BOOL = Is("a boolean", lambda v: isinstance(v, bool))
INT = Is("an integer", _is_int)
POSITIVE_INT = Is("a positive integer", lambda v: _is_int(v) and v >= 1)
NUMBER = Is("a number", _is_number)
NON_NEGATIVE = Is("a non-negative number", lambda v: _is_number(v) and v >= 0)
TEXT = Is("a non-empty string", lambda v: isinstance(v, str) and v != "")
LIST = Is("a list", lambda v: isinstance(v, list))
TEXTS = Is("a list of strings", lambda v: _is_list_of(v, lambda s: isinstance(s, str)))
OBJECT = Is("an object", lambda v: isinstance(v, dict))
DIGEST = Is("a 64-character sha256 hex string", lambda v: isinstance(v, str) and len(v) == 64)
WEIGHTS = Is(
    "a list of non-empty number lists",
    lambda v: _is_list_of(v, lambda h: bool(h) and _is_list_of(h, _is_number)),
)


def _walk(spec: Spec, value: object, where: str) -> list[str]:
    """Every mismatch between ``value`` and ``spec``; ``where`` names it."""
    if isinstance(spec, Is):
        return [] if spec.test(value) else [
            f"{where} must be {spec.what}, got {reprlib.repr(value)}"
        ]
    if isinstance(spec, Rows):
        if not isinstance(value, list) or not value:
            return [f"{where} must be a non-empty list"]
        row = Obj(spec.fields)
        return [p for i, item in enumerate(value) for p in _walk(row, item, f"{where}[{i}]")]
    if not isinstance(value, dict):
        return [f"{where or 'artifact'} must be a JSON object, got {type(value).__name__}"]
    problems: list[str] = []
    for key, field in spec.fields.items():
        name = f"{where}.{key}" if where else key
        if key not in value:
            problems.append(f"missing key {name!r}")
        else:
            problems += _walk(field, value[key], name)
    return problems


@dataclass(frozen=True)
class ArtifactSchema:
    """One artifact kind: how to recognise it, check it and summarise it."""

    prefix: str  # the ``schema`` marker starts with this
    fields: Mapping[str, Spec]
    invariants: Callable[[dict], list[str]]  # cross-field rules, on well-typed data
    summary: Callable[[dict], str]  # the CLI's verdict line for a valid file

    def problems(self, data: object) -> list[str]:
        """All problems of ``data`` as this kind of artifact (empty = valid)."""
        schema = Is(
            f"a string starting with {self.prefix!r}",
            lambda v: isinstance(v, str) and v.startswith(self.prefix),
        )
        problems = _walk(Obj({"schema": schema, **self.fields}), data, "")
        return problems or self.invariants(data)


def _verdict_problems(report: dict, rows: str) -> list[str]:
    """A passed row lists no mismatches; the aggregate is all rows passing."""
    problems = [
        f"{rows}[{i}] passed but lists mismatches"
        for i, row in enumerate(report[rows])
        if row["passed"] and row["mismatches"]
    ]
    all_passed = all(row["passed"] for row in report[rows])
    if report["passed"] != all_passed:
        problems.append(
            f"aggregate passed={report['passed']} contradicts the {rows} "
            f"(all_passed={all_passed})"
        )
    return problems


def _conformance_invariants(report: dict) -> list[str]:
    problems = _verdict_problems(report, "reports")
    for key, total in (
        ("checks", sum(row["checks"] for row in report["reports"])),
        ("mismatches", sum(len(row["mismatches"]) for row in report["reports"])),
    ):
        if report[key] != total:
            problems.append(f"aggregate {key}={report[key]} is not the reports' sum {total}")
    return problems


def _scenario_invariants(report: dict) -> list[str]:
    cells = report["cells"]
    problems = _verdict_problems(report, "cells")
    for key, column in (("scenarios", "scenario"), ("design_points", "design_point")):
        named = {cell[column] for cell in cells}
        if set(report[key]) != named:
            problems.append(
                f"{key!r} {sorted(report[key])} does not match the cells {sorted(named)}"
            )
    total = report["obs"]["counters"].get("scenario_matrix_cells_total")
    if total != float(len(cells)):
        problems.append(
            f"obs counter scenario_matrix_cells_total ({total}) does not match "
            f"the {len(cells)} cells"
        )
    return problems


def _portfolio_invariants(report: dict) -> list[str]:
    ids = [entry["config_id"] for entry in report["entries"]]
    problems = [
        f"entries[{i}] repeats config {config_id!r}"
        for i, config_id in enumerate(ids)
        if config_id in ids[:i]
    ]
    total = sum(entry["count"] for entry in report["entries"])
    if total != report["num_instances"]:
        problems.append(
            f"entry counts sum to {total}, not num_instances={report['num_instances']}"
        )
    problems += [
        f"assignment for {regime!r} names unknown config {config_id!r}"
        for regime, config_id in sorted(report["assignment"].items())
        if config_id not in ids
    ]
    return problems


def _policy_invariants(artifact: dict) -> list[str]:
    # Imported here so that importing repro.obs never loads the runtime layer.
    from repro.errors import ConfigurationError
    from repro.runtime.policy import ControllerPolicy

    try:
        ControllerPolicy.from_dict(artifact)
    except ConfigurationError as error:
        return [str(error)]
    return []


def _policy_eval_invariants(report: dict) -> list[str]:
    dominated = all(entry["dominates"] for entry in report["profiles"])
    if report["passed"] != dominated:
        return [
            f"aggregate passed={report['passed']} contradicts the profiles "
            f"(all dominated={dominated})"
        ]
    return []


_EVAL_SIDE = Obj({
    "energy_j": NUMBER,
    "mean_drift_m": NUMBER,
    "windows_served": INT,
    "windows_shed": INT,
    "deadline_misses": INT,
    "errors": INT,
})

#: Every artifact kind, keyed by the file name its producing CLI writes.
ARTIFACTS: dict[str, ArtifactSchema] = {
    "CONFORMANCE.json": ArtifactSchema(
        prefix="repro.conformance/",
        fields={
            "passed": BOOL,
            "checks": INT,
            "mismatches": INT,
            "reports": Rows({
                "oracle": TEXT,
                "workload": TEXT,
                "passed": BOOL,
                "checks": INT,
                "mismatches": LIST,
                "seconds": NUMBER,
            }),
        },
        invariants=_conformance_invariants,
        summary=lambda r: (
            f"valid conformance report ({len(r['reports'])} oracle runs, "
            f"{'PASS' if r['passed'] else 'FAIL'})"
        ),
    ),
    "SCENARIOS.json": ArtifactSchema(
        prefix=SCENARIO_SCHEMA_PREFIX,
        fields={
            "passed": BOOL,
            "cells": Rows({
                "oracle": TEXT,
                "scenario": TEXT,
                "design_point": TEXT,
                "workload": TEXT,
                "passed": BOOL,
                "checks": INT,
                "mismatches": LIST,
                "seconds": NUMBER,
            }),
            "scenarios": TEXTS,
            "design_points": TEXTS,
            "obs": Obj({"counters": OBJECT, "gauges": OBJECT, "histograms": OBJECT}),
        },
        invariants=_scenario_invariants,
        summary=lambda r: (
            f"valid scenario-matrix report ({len(r['cells'])} cells, "
            f"{'PASS' if r['passed'] else 'FAIL'})"
        ),
    ),
    "PORTFOLIO.json": ArtifactSchema(
        prefix="repro.portfolio/",
        fields={
            "name": TEXT,
            "objective": Is("'energy' or 'latency'", lambda v: v in ("energy", "latency")),
            "slo_met": BOOL,
            "expected_energy_per_window_j": NON_NEGATIVE,
            "expected_latency_s": NON_NEGATIVE,
            "provisioned_power_w": NON_NEGATIVE,
            "entries": Rows({
                "config_id": TEXT,
                "count": POSITIVE_INT,
                "nd": INT,
                "nm": INT,
                "s": INT,
                "power_w": NUMBER,
                "utilization": NUMBER,
                "assigned_regimes": LIST,
            }),
            "num_instances": POSITIVE_INT,
            "assignment": Is(
                "an object mapping regimes to config ids",
                lambda v: isinstance(v, dict) and all(isinstance(c, str) for c in v.values()),
            ),
        },
        invariants=_portfolio_invariants,
        summary=lambda r: (
            f"valid portfolio report ({len(r['entries'])} configs, "
            f"{'SLO-MET' if r['slo_met'] else 'SLO-MISSED'})"
        ),
    ),
    "POLICY.json": ArtifactSchema(
        prefix="repro.policy/",
        fields={
            "name": TEXT,
            "caps": Is(
                "a non-empty list of integers", lambda v: bool(v) and _is_list_of(v, _is_int)
            ),
            "error_heads": WEIGHTS,
            "admission_actions": Is(
                "['accept', 'degrade', 'shed']", lambda v: v == ["accept", "degrade", "shed"]
            ),
            "admission_heads": WEIGHTS,
            "energy_weight": NUMBER,
            "drift_alpha": NUMBER,
            "trained_on": TEXTS,
            "digest": DIGEST,
        },
        invariants=_policy_invariants,
        summary=lambda r: (
            f"valid policy artifact ({len(r['caps'])} caps, digest {r['digest'][:12]})"
        ),
    ),
    "POLICY_EVAL.json": ArtifactSchema(
        prefix="repro.policy-eval/",
        fields={
            "passed": BOOL,
            "policy": Obj({"name": TEXT, "digest": DIGEST}),
            "profiles": Rows({
                "profile": TEXT,
                "dominates": BOOL,
                "baseline": _EVAL_SIDE,
                "learned": _EVAL_SIDE,
            }),
        },
        invariants=_policy_eval_invariants,
        summary=lambda r: (
            f"valid policy-eval report ({len(r['profiles'])} profiles, "
            f"{'DOMINATES' if r['passed'] else 'FAIL'})"
        ),
    ),
}


def find_schema(data: object) -> ArtifactSchema | None:
    """The entry whose prefix ``data``'s ``schema`` marker starts with."""
    schema = data.get("schema") if isinstance(data, dict) else None
    if not isinstance(schema, str):
        return None
    return next((entry for entry in ARTIFACTS.values() if schema.startswith(entry.prefix)), None)


# Per-kind entry points, as the scenario-matrix and portfolio tests import them.
validate_scenario_report = ARTIFACTS["SCENARIOS.json"].problems
validate_portfolio_report = ARTIFACTS["PORTFOLIO.json"].problems
