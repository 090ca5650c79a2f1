"""Learned runtime control: contextual-bandit iteration caps + admission.

The paper's Sec. 6.2 run-time optimizer is a 2-bit saturating counter
over an offline lookup table, and the serving tier's admission control
is three fixed queue-depth regimes; both explicitly leave "training a
machine learning model" to future work. This module is that extension:

* an **iteration head** — one ridge-regression *excess-error* model
  per profiled iteration cap (error beyond what the maximum cap
  achieves on the same window), over window features (tracked-feature
  count transforms plus the session's drift-estimate EWMA). At serve
  time the controller picks the cap minimizing ``predicted_excess +
  energy_weight * cap`` — the contextual bandit's *direct method*:
  model each arm's cost, act greedily. Because the LM solver
  early-stops on convergence while the accelerator charges
  latency/energy by the *cap*, a cap sized to the predicted need cuts
  energy with identical numerics wherever the cap still covers the
  need, and cuts drift where the fixed table under-provisions;
* an **admission head** — one linear score per accept/degrade/shed
  action over (queue fraction, latency-SLO headroom, drift EWMA),
  trained by cloning the fixed-regime teacher's decisions across the
  seeded load profiles. The scheduler takes the argmax inside the
  ``[0, max_queue)`` band; the hard queue bound stays rule-based.

Everything is frozen into a :class:`ControllerPolicy` of pure-Python
``tuple`` weights: pickling is exact (the process execution backend
ships controllers across the fork boundary), JSON round-trips are exact
(``repr``-based float serialization), and a sha256 digest
content-addresses the artifact (``POLICY.json``, schema
``repro.policy/v1``, validated by ``python -m repro.obs validate``).
Training (:func:`train_controller_policy`) is deterministic — seeded
profiling data, fixed iteration order, a pure-Python ridge solve with
no BLAS in the loop — so one :class:`PolicyTrainSpec` always freezes
the same weights.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.runtime.profiler import MAX_ITERATIONS
from repro.utils.validation import lookup

POLICY_SCHEMA = "repro.policy/v1"

#: Admission actions in head order; argmax index maps to this tuple.
ADMISSION_ACTIONS = ("accept", "degrade", "shed")


def iteration_features(feature_count: float, drift_m: float) -> tuple[float, ...]:
    """Feature map of the iteration head: ``[1, n/100, 10/n, log n]``
    over the feature count ``n`` plus the drift-estimate EWMA (clipped —
    a diverged session must not extrapolate the linear model)."""
    n = max(float(feature_count), 1.0)
    return (1.0, n / 100.0, 10.0 / n, math.log(n), min(max(drift_m, 0.0), 1.0))


def admission_features(
    queue_frac: float, band_frac: float, headroom: float, drift_m: float
) -> tuple[float, ...]:
    """Feature map of the admission head: queue depth as a fraction of
    the hard bound (plus its square — the teacher's DEGRADE regime is a
    *band* in queue depth, and one-vs-all linear scores need the
    quadratic to let a middle class peak mid-range), the depth's margin
    over the backpressure threshold, latency-SLO headroom (1 = idle,
    <= 0 = the recent service-time EWMA already eats the whole
    deadline), drift EWMA.

    ``band_frac`` is the scheduler's backpressure threshold as a
    fraction of the hard bound — where the teacher's DEGRADE band
    *starts*. Profiles place the band at different fractions (overload
    runs a tight queue with the band at 0.5, steady a deep one at
    0.19); without the margin feature a clone pooled across profiles
    smears the boundary and degrades windows the teacher accepts."""
    q = min(max(queue_frac, 0.0), 1.0)
    margin = min(max(q - band_frac, -1.0), 1.0)
    return (
        1.0,
        q,
        q * q,
        margin,
        min(max(headroom, -1.0), 1.0),
        min(max(drift_m, 0.0), 1.0),
    )


def _dot(weights: tuple[float, ...], features: tuple[float, ...]) -> float:
    total = 0.0
    for w, x in zip(weights, features):
        total += w * x
    return total


def ridge_fit(
    rows: list[tuple[float, ...]],
    targets: list[float],
    ridge: float,
    weights: list[float] | None = None,
) -> tuple[float, ...]:
    """Pure-Python (weighted) ridge regression (normal equations +
    Gaussian elimination with partial pivoting).

    Deliberately BLAS-free: ``np.linalg.solve`` routes through whatever
    LAPACK the host ships, and the frozen policy artifact must
    reproduce bit-identically wherever the training data does.
    """
    if not rows:
        raise ConfigurationError("ridge_fit needs at least one sample")
    if weights is not None and len(weights) != len(rows):
        raise ConfigurationError("one weight per sample required")
    dim = len(rows[0])
    gram = [[ridge if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    rhs = [0.0] * dim
    for k, (x, y) in enumerate(zip(rows, targets)):
        w = 1.0 if weights is None else weights[k]
        for i in range(dim):
            for j in range(dim):
                gram[i][j] += w * x[i] * x[j]
            rhs[i] += w * x[i] * y
    # Gaussian elimination with partial pivoting on [gram | rhs].
    for col in range(dim):
        pivot = max(range(col, dim), key=lambda r: abs(gram[r][col]))
        if abs(gram[pivot][col]) < 1e-12:
            raise ConfigurationError("ridge system is singular; raise ridge")
        if pivot != col:
            gram[col], gram[pivot] = gram[pivot], gram[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for row in range(col + 1, dim):
            factor = gram[row][col] / gram[col][col]
            if factor == 0.0:
                continue
            for j in range(col, dim):
                gram[row][j] -= factor * gram[col][j]
            rhs[row] -= factor * rhs[col]
    weights = [0.0] * dim
    for row in range(dim - 1, -1, -1):
        acc = rhs[row]
        for j in range(row + 1, dim):
            acc -= gram[row][j] * weights[j]
        weights[row] = acc / gram[row][row]
    return tuple(weights)


@dataclass(frozen=True)
class ControllerPolicy:
    """A frozen learned controller: per-cap error heads + admission heads.

    Frozen (but not ``slots=True`` — frozen+slots dataclasses cannot be
    pickled on Python 3.10, and the policy rides inside pickled
    controllers across the serve tier's process boundary, mirroring
    :class:`~repro.runtime.controller.WindowDecision`). All weights are
    plain ``tuple`` of ``float``: decisions are pure functions of
    (features, weights) with no hidden state, which is what makes the
    serve metrics byte-identical across repeats, execution backends,
    and shard counts given the same artifact.
    """

    name: str
    caps: tuple[int, ...]
    error_heads: tuple[tuple[float, ...], ...]  # per cap, iteration features
    admission_heads: tuple[tuple[float, ...], ...]  # per ADMISSION_ACTIONS
    energy_weight: float  # [m/iteration] price of one extra NLS iteration
    drift_alpha: float = 0.2  # drift-estimate EWMA smoothing
    trained_on: tuple[str, ...] = ()
    schema: str = POLICY_SCHEMA

    def __post_init__(self) -> None:
        if not self.caps:
            raise ConfigurationError("a policy needs at least one iteration cap")
        if list(self.caps) != sorted(set(self.caps)):
            raise ConfigurationError("caps must be strictly increasing")
        if any(cap < 1 or cap > MAX_ITERATIONS for cap in self.caps):
            raise ConfigurationError(
                f"caps must lie in [1, {MAX_ITERATIONS}], got {self.caps}"
            )
        if len(self.error_heads) != len(self.caps):
            raise ConfigurationError(
                f"{len(self.caps)} caps need {len(self.caps)} error heads, "
                f"got {len(self.error_heads)}"
            )
        if len(self.admission_heads) != len(ADMISSION_ACTIONS):
            raise ConfigurationError(
                f"admission needs one head per action {ADMISSION_ACTIONS}, "
                f"got {len(self.admission_heads)}"
            )
        error_width = len(iteration_features(1, 0.0))
        if any(len(head) != error_width for head in self.error_heads):
            raise ConfigurationError(
                f"error heads must match the {error_width}-wide iteration "
                "feature map (stale artifact from an older feature schema?)"
            )
        admission_width = len(admission_features(0.0, 0.0, 0.0, 0.0))
        if any(len(head) != admission_width for head in self.admission_heads):
            raise ConfigurationError(
                f"admission heads must match the {admission_width}-wide "
                "admission feature map (stale artifact from an older "
                "feature schema?)"
            )
        if self.energy_weight < 0:
            raise ConfigurationError("energy_weight must be >= 0")
        if not 0.0 < self.drift_alpha <= 1.0:
            raise ConfigurationError("drift_alpha must lie in (0, 1]")

    # ------------------------------------------------------------------
    # Decisions (pure functions of features and frozen weights)
    # ------------------------------------------------------------------

    def iteration_cap(self, feature_count: int, drift_m: float = 0.0) -> int:
        """The cap minimizing predicted excess error + energy price;
        ties break toward the smaller cap (deterministic, and cheaper)."""
        x = iteration_features(feature_count, drift_m)
        best_cap, best_cost = self.caps[0], math.inf
        for cap, head in zip(self.caps, self.error_heads):
            cost = max(_dot(head, x), 0.0) + self.energy_weight * cap
            if cost < best_cost:
                best_cap, best_cost = cap, cost
        return best_cap

    def admission(
        self, queue_frac: float, band_frac: float, headroom: float,
        drift_m: float,
    ) -> str:
        """The argmax admission action; ties break toward acceptance."""
        x = admission_features(queue_frac, band_frac, headroom, drift_m)
        best_action, best_score = ADMISSION_ACTIONS[0], -math.inf
        for action, head in zip(ADMISSION_ACTIONS, self.admission_heads):
            score = _dot(head, x)
            if score > best_score:
                best_action, best_score = action, score
        return best_action

    # ------------------------------------------------------------------
    # Artifact round-trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        body = {
            "schema": self.schema,
            "name": self.name,
            "caps": list(self.caps),
            "error_heads": [list(head) for head in self.error_heads],
            "admission_heads": [list(head) for head in self.admission_heads],
            "admission_actions": list(ADMISSION_ACTIONS),
            "energy_weight": self.energy_weight,
            "drift_alpha": self.drift_alpha,
            "trained_on": list(self.trained_on),
        }
        body["digest"] = _digest(body)
        return body

    @classmethod
    def from_dict(cls, data: dict) -> "ControllerPolicy":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"policy artifact must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema", "")
        if not str(schema).startswith("repro.policy/"):
            raise ConfigurationError(
                f"not a policy artifact (schema {schema!r})"
            )
        recorded = data.get("digest")
        if recorded is not None:
            expected = _digest({k: v for k, v in data.items() if k != "digest"})
            if recorded != expected:
                raise ConfigurationError(
                    "policy artifact digest mismatch: content was edited "
                    f"after freezing (recorded {recorded[:12]}..., "
                    f"recomputed {expected[:12]}...)"
                )
        try:
            return cls(
                name=str(data["name"]),
                caps=tuple(int(c) for c in data["caps"]),
                error_heads=tuple(
                    tuple(float(w) for w in head) for head in data["error_heads"]
                ),
                admission_heads=tuple(
                    tuple(float(w) for w in head)
                    for head in data["admission_heads"]
                ),
                energy_weight=float(data["energy_weight"]),
                drift_alpha=float(data["drift_alpha"]),
                trained_on=tuple(str(p) for p in data.get("trained_on", ())),
                schema=str(schema),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(f"malformed policy artifact: {error}")

    @property
    def digest(self) -> str:
        """Content digest of the frozen weights (sha256 hex)."""
        body = self.to_dict()
        return body["digest"]

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ControllerPolicy":
        path = Path(path)
        if not path.is_file():
            raise ConfigurationError(f"no policy artifact at {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"{path} is not valid JSON: {error}")
        return cls.from_dict(data)


def _digest(body: dict) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyTrainSpec:
    """Everything that determines a trained policy, content-addressably.

    The spec is the engine key of the ``POLICY`` stage: profiles name
    seeded load shapes, so (spec -> weights) is a pure function and the
    artifact cache can serve a frozen policy to every shard of a fleet.
    """

    name: str = "default"
    profiles: tuple[str, ...] = (
        "smoke",
        "steady",
        "overload",
        "scenario-tunnel",
        "scenario-loop-closure",
        "scenario-aggressive",
        "scenario-highway",
    )
    caps: tuple[int, ...] = (1, 2, 3, 4, 6)
    probe_stride: int = 3
    #: Perturbation scales pooled into the error-head training set. 0.0
    #: probes the warm-started linearization point live serving actually
    #: sees (where high caps are pure waste); 1.0 resets windows to
    #: front-end grade (what the run-time knob must provision for after
    #: tracking loss). Training on both teaches the drift feature to
    #: separate the regimes.
    probe_scales: tuple[float, ...] = (0.0, 1.0)
    seed: int = 0
    ridge: float = 1e-3
    admission_ridge: float = 1e-3
    #: Tempering exponent on the inverse-frequency class weights of the
    #: admission clone: 0 = raw frequencies (over-accepts), 1 = fully
    #: balanced (over-degrades vs the teacher).
    admission_balance: float = 0.6
    energy_weight: float = 0.03  # [m/iteration]
    drift_alpha: float = 0.2

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ConfigurationError("a train spec needs at least one profile")
        if not self.caps or list(self.caps) != sorted(set(self.caps)):
            raise ConfigurationError("caps must be strictly increasing")
        if self.probe_stride < 1:
            raise ConfigurationError("probe_stride must be >= 1")
        if not self.probe_scales or any(s < 0 for s in self.probe_scales):
            raise ConfigurationError("probe_scales must be non-negative")
        if self.ridge <= 0 or self.admission_ridge <= 0:
            raise ConfigurationError("ridge strengths must be positive")
        if self.admission_balance < 0:
            raise ConfigurationError("admission_balance must be >= 0")


#: Registered specs, resolvable by name through a profile's ``policy``
#: field (anything not ending in ``.json`` resolves here).
POLICY_SPECS: dict[str, PolicyTrainSpec] = {
    "default": PolicyTrainSpec(),
}


def resolve_policy_spec(name: str) -> PolicyTrainSpec:
    """Look up a registered train spec, with did-you-mean on typos."""
    return lookup("policy spec", name, POLICY_SPECS, " or a *.json artifact path")


def excess_error_samples(
    profiled: dict[int, list[tuple[int, float]]],
) -> dict[int, list[tuple[tuple[float, ...], float]]]:
    """Error-head training samples from one offline profile.

    ``profiled`` maps cap -> [(feature_count, error), ...] as
    :func:`~repro.runtime.profiler.profile_accuracy_vs_iterations`
    returns it. Each window's error at the *maximum* profiled cap is its
    reference: the sample's target is the cap's excess over it, and it
    doubles as the training-time stand-in for the drift-EWMA feature
    (the window's irreducible error, which is what the serving-time
    EWMA tracks).
    """
    reference = profiled[max(profiled)]
    return {
        cap: [
            (iteration_features(count, ref_error), error - ref_error)
            for (count, error), (_, ref_error) in zip(samples, reference)
        ]
        for cap, samples in profiled.items()
    }


def fit_error_heads(
    samples: dict[int, list[tuple[tuple[float, ...], float]]],
    caps: tuple[int, ...],
    ridge: float,
) -> tuple[tuple[float, ...], ...]:
    """Per-cap ridge fits of (iteration features -> *excess* error [m]).

    Targets are each window's error at the cap **minus** its error at
    the maximum profiled cap — the accuracy actually at stake in the
    cap choice. The irreducible part is uninformative for the decision
    (every arm pays it) and would otherwise dominate the fit: absolute
    targets teach every head the drift level and almost nothing about
    which cap suffices.
    """
    heads = []
    for cap in caps:
        rows = [x for x, _ in samples[cap]]
        targets = [y for _, y in samples[cap]]
        heads.append(ridge_fit(rows, targets, ridge))
    return tuple(heads)


def fit_admission_heads(
    samples: list[dict], ridge: float, balance: float = 1.0
) -> tuple[tuple[float, ...], ...]:
    """One-vs-all ridge fits cloning logged admission decisions.

    Each sample is a decision-log row: ``queue_frac``, ``headroom``,
    ``drift`` features plus the teacher's ``action``. Samples are
    class-balanced (inverse-frequency weights, tempered by the
    ``balance`` exponent): uncongested profiles log thousands of
    ACCEPTs, and an unweighted fit (``balance=0``) would shrink the
    rare DEGRADE/SHED heads until the clone over-accepts under
    overload — serving more windows at full quality than the teacher
    and burning the energy budget the gate protects. Full balancing
    (``balance=1``) overshoots the other way, degrading windows the
    teacher accepted; the tempered exponent interpolates. An action
    absent from the log keeps a near-zero head and can never win the
    argmax — exactly right for a fleet that never saw pressure.
    """
    if not samples:
        raise ConfigurationError("admission training needs logged decisions")
    rows = [
        admission_features(
            s["queue_frac"], s["band_frac"], s["headroom"], s["drift"]
        )
        for s in samples
    ]
    counts = {action: 0 for action in ADMISSION_ACTIONS}
    for s in samples:
        if s["action"] in counts:
            counts[s["action"]] += 1
    weights = [
        (len(samples) / (len(ADMISSION_ACTIONS) * counts[s["action"]]))
        ** balance
        if counts.get(s["action"])
        else 1.0
        for s in samples
    ]
    heads = []
    for action in ADMISSION_ACTIONS:
        targets = [1.0 if s["action"] == action else 0.0 for s in samples]
        heads.append(ridge_fit(rows, targets, ridge, weights=weights))
    return tuple(heads)


def train_controller_policy(
    spec: PolicyTrainSpec, engine=None
) -> ControllerPolicy:
    """Train a :class:`ControllerPolicy` offline against seeded profiles.

    Two independent passes, both deterministic:

    1. **iteration head** — for every distinct sequence behind the
       spec's profiles, run the Sec. 6.2 offline profiler
       (:func:`~repro.runtime.profiler.profile_accuracy_vs_iterations`)
       at the spec's caps and fit one *excess-error* model per cap
       (error beyond the maximum cap's on the same window; see
       :func:`excess_error_samples`).
    2. **admission head** — replay every profile through the baseline
       fixed-regime service with a decision log and clone the teacher's
       accept/degrade/shed choices one-vs-all.

    Heavy but cacheable: the ``POLICY`` engine stage keys this function
    by the spec, so fleets, tests, and CI share one frozen artifact.
    """
    if engine is None:
        from repro.engine import get_engine

        engine = get_engine()
    # Imported lazily: repro.serve imports repro.runtime.controller, and
    # this module must stay importable from the controller layer.
    from repro.engine import SEQUENCE
    from repro.engine.keys import artifact_key
    from repro.runtime.profiler import profile_accuracy_vs_iterations
    from repro.serve.loadgen import resolve_profile, session_sequence_config
    from repro.serve.service import LocalizationService

    profiles = [resolve_profile(name) for name in spec.profiles]

    error_samples: dict[int, list[tuple[tuple[float, ...], float]]] = {
        cap: [] for cap in spec.caps
    }
    for profile in profiles:
        configs = {
            artifact_key("policy-seq", "1", session_sequence_config(profile, sid)): (
                session_sequence_config(profile, sid)
            )
            for sid in range(profile.num_sessions)
        }
        for token in sorted(configs):
            sequence = engine.run(SEQUENCE, configs[token])
            for scale in spec.probe_scales:
                profiled = profile_accuracy_vs_iterations(
                    sequence,
                    iteration_caps=spec.caps,
                    window_size=profile.window_size,
                    probe_stride=spec.probe_stride,
                    seed=spec.seed,
                    perturb_scale=scale,
                )
                for cap, samples in excess_error_samples(profiled).items():
                    error_samples[cap].extend(samples)
    error_heads = fit_error_heads(error_samples, spec.caps, spec.ridge)

    decision_log: list[dict] = []
    for profile in profiles:
        LocalizationService(
            profile, engine=engine, decision_log=decision_log
        ).run()
    admission_heads = fit_admission_heads(
        decision_log, spec.admission_ridge, balance=spec.admission_balance
    )

    return ControllerPolicy(
        name=spec.name,
        caps=spec.caps,
        error_heads=error_heads,
        admission_heads=admission_heads,
        energy_weight=spec.energy_weight,
        drift_alpha=spec.drift_alpha,
        trained_on=spec.profiles,
    )


def load_policy(source: str, engine=None) -> ControllerPolicy:
    """Resolve a profile's ``policy`` field to a frozen policy.

    ``*.json`` is a frozen artifact path (digest-checked on load);
    anything else names a registered :class:`PolicyTrainSpec`, trained
    through the engine's content-addressed ``POLICY`` stage (cached:
    every shard and repeat gets byte-identical weights).
    """
    if source.endswith(".json"):
        return ControllerPolicy.load(source)
    if os.sep in source:
        raise ConfigurationError(
            f"policy artifact paths must end in .json, got {source!r}"
        )
    spec = resolve_policy_spec(source)
    if engine is None:
        from repro.engine import get_engine

        engine = get_engine()
    from repro.engine import POLICY

    return engine.run(POLICY, spec)
