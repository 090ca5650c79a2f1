"""The learned-controller differential eval (the ``policy-eval`` gate).

Runs every eval profile twice through the serving tier — once with the
2-bit counter + fixed-regime baseline, once with the frozen learned
policy — and demands that the learned controller **Pareto-dominates**
the baseline on the drift-vs-energy plane, per profile:

* strictly less fleet energy;
* windows-weighted mean drift no worse, compared at physical
  measurement resolution (:data:`DRIFT_RESOLUTION_M`, 10 um over
  tens-of-meter trajectories) — warm-started LM early-stopping makes
  individual cap placements differ by micrometers of truncation
  noise, and the counter baseline's exact placement is a hysteresis
  path of the very mechanism the policy bypasses, so demanding
  bit-equality below sensor resolution would gate on replicating the
  bypassed counter rather than on localization quality;
* no more admission sheds and no more deadline misses (the guardrails
  that stop a policy from "improving" drift by refusing to serve);
* zero optimization errors.

Both runs are seeded virtual-time simulations, so the comparison is
exact — no variance, no reruns, and a pass is a property of (profile,
artifact), reproducible anywhere. The report (``POLICY_EVAL.json``,
schema ``repro.policy-eval/v1``) is validated by
``python -m repro.obs validate`` before CI archives it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.serve.loadgen import resolve_profile
from repro.serve.service import LocalizationService

POLICY_EVAL_SCHEMA = "repro.policy-eval/v1"

#: The profiles the gate must dominate on (ISSUE 10 acceptance).
DEFAULT_EVAL_PROFILES = ("smoke", "steady", "overload")

#: Resolution floor for the drift comparison [m]: differences below
#: 10 um are warm-start truncation indeterminacy, not localization
#: quality (drift itself is ~0.05-0.09 m). Energy has no such floor —
#: it is charged deterministically per provisioned iteration.
DRIFT_RESOLUTION_M = 1e-5


def _summarize(metrics: dict) -> dict:
    """The drift-vs-energy coordinates (plus guardrails) of one run."""
    totals = metrics["totals"]
    served = sum(s["windows_served"] for s in metrics["sessions"])
    drift_weighted = sum(
        s["mean_drift_m"] * s["windows_served"] for s in metrics["sessions"]
    )
    return {
        "energy_j": totals["energy_j"],
        "mean_drift_m": drift_weighted / served if served else 0.0,
        "windows_served": int(totals["windows_served"]),
        "windows_shed": int(totals["windows_shed"]),
        "windows_degraded": int(totals["windows_degraded"]),
        "deadline_misses": int(totals["deadline_misses"]),
        "errors": int(totals["errors"]),
    }


def _dominates(baseline: dict, learned: dict) -> tuple[bool, list[str]]:
    """Pareto verdict plus the reasons a profile failed (empty = pass)."""
    reasons = []
    if learned["errors"] != 0:
        reasons.append(f"learned run hit {learned['errors']} errors")
    if not learned["energy_j"] < baseline["energy_j"]:
        reasons.append(
            f"energy not strictly improved "
            f"({learned['energy_j']:.6f} J vs {baseline['energy_j']:.6f} J)"
        )
    if learned["mean_drift_m"] > baseline["mean_drift_m"] + DRIFT_RESOLUTION_M:
        reasons.append(
            f"mean drift regressed beyond the {DRIFT_RESOLUTION_M} m "
            f"resolution floor ({learned['mean_drift_m']:.6f} m vs "
            f"{baseline['mean_drift_m']:.6f} m)"
        )
    if learned["windows_shed"] > baseline["windows_shed"]:
        reasons.append(
            f"sheds regressed ({learned['windows_shed']} vs "
            f"{baseline['windows_shed']})"
        )
    if learned["deadline_misses"] > baseline["deadline_misses"]:
        reasons.append(
            f"deadline misses regressed ({learned['deadline_misses']} vs "
            f"{baseline['deadline_misses']})"
        )
    return not reasons, reasons


@dataclass
class PolicyEvalRun:
    """Outcome of one differential eval: report dict + verdict."""

    report: dict
    passed: bool
    policy_path: Path

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.report, indent=2, sort_keys=True) + "\n")
        return path

    def summary_lines(self) -> list[str]:
        lines = [
            f"policy-eval: {self.report['policy']['name']} "
            f"(digest {self.report['policy']['digest'][:12]}) vs the "
            "counter + fixed-regime baseline",
        ]
        for entry in self.report["profiles"]:
            base, learned = entry["baseline"], entry["learned"]
            verdict = "DOMINATES" if entry["dominates"] else "FAIL"
            lines.append(
                f"  {entry['profile']:<10} {verdict:<9} "
                f"energy {base['energy_j']:.4f} -> {learned['energy_j']:.4f} J  "
                f"drift {base['mean_drift_m']:.6f} -> "
                f"{learned['mean_drift_m']:.6f} m  "
                f"shed {base['windows_shed']} -> {learned['windows_shed']}  "
                f"miss {base['deadline_misses']} -> {learned['deadline_misses']}"
            )
            for reason in entry["reasons"]:
                lines.append(f"      - {reason}")
        lines.append(
            "policy-eval verdict: "
            + ("PASS (dominates on every profile)" if self.passed else "FAIL")
        )
        return lines


def run_policy_eval(
    policy: str = "default",
    profiles: tuple[str, ...] = DEFAULT_EVAL_PROFILES,
    policy_output: str | Path = "POLICY.json",
) -> PolicyEvalRun:
    """Train/load the policy, freeze it, and run the differential eval.

    ``policy`` is a registered :class:`~repro.runtime.policy.
    PolicyTrainSpec` name (trained through the engine's POLICY stage) or
    a frozen ``*.json`` artifact path. The frozen artifact is always
    (re)written to ``policy_output`` and the learned runs load it from
    there — the eval exercises exactly the file CI archives.
    """
    from repro.engine import get_engine
    from repro.runtime.policy import load_policy

    engine = get_engine()
    frozen = load_policy(policy, engine=engine)
    policy_path = frozen.save(policy_output)

    entries = []
    passed = True
    for name in profiles:
        profile = resolve_profile(name)
        started = time.perf_counter()
        base_metrics = LocalizationService(profile, engine=engine).run().metrics
        learned_metrics = (
            LocalizationService(
                replace(profile, policy=str(policy_path)), engine=engine
            )
            .run()
            .metrics
        )
        seconds = time.perf_counter() - started
        baseline, learned = _summarize(base_metrics), _summarize(learned_metrics)
        dominates, reasons = _dominates(baseline, learned)
        passed = passed and dominates
        entries.append(
            {
                "profile": name,
                "baseline": baseline,
                "learned": learned,
                "dominates": dominates,
                "reasons": reasons,
                "seconds": round(seconds, 3),
            }
        )

    report = {
        "schema": POLICY_EVAL_SCHEMA,
        "policy": {
            "name": frozen.name,
            "digest": frozen.digest,
            "source": str(policy),
            "artifact": str(policy_path),
        },
        "profiles": entries,
        "passed": passed,
    }
    return PolicyEvalRun(report=report, passed=passed, policy_path=policy_path)
