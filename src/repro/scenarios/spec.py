"""Scenario specifications: named degenerate regimes and seeded mixtures.

Archytas (Sec. 7.6) motivates dynamic optimization by the workload
regimes a robot actually meets — feature droughts, sudden large windows,
aggressive flight — yet a default loadgen only ever produces one
well-conditioned visual-inertial shape. A :class:`ScenarioSpec` is a
frozen description of one such regime (or a seeded mixture of regimes)
that every layer of the stack can lower deterministically:

* :mod:`repro.scenarios.builders` turns a spec into window problems,
  workload-statistics series, and sequence configurations;
* :mod:`repro.serve.loadgen` tags :class:`~repro.serve.loadgen.LoadProfile`
  with a scenario so serve sessions run over regime-shaped recordings;
* :mod:`repro.testing` runs every oracle against every regime at
  multiple design points (the SLAMBench-style scenario x config matrix).

The spec plus a seed fully determines everything downstream — two
processes lowering the same spec produce bit-identical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.rng import rng_from_seed, split_seed
from repro.utils.validation import lookup

# The canonical regime names, in presentation order.
REGIME_NOMINAL = "nominal"
REGIME_TUNNEL = "tunnel"
REGIME_LOOP_CLOSURE = "loop_closure"
REGIME_AGGRESSIVE = "aggressive"
REGIME_HIGHWAY = "highway"

DEGENERATE_REGIMES: tuple[str, ...] = (
    REGIME_TUNNEL,
    REGIME_LOOP_CLOSURE,
    REGIME_AGGRESSIVE,
    REGIME_HIGHWAY,
)
REGIMES: tuple[str, ...] = (REGIME_NOMINAL,) + DEGENERATE_REGIMES

# One-line description per regime; docs/scenarios.md carries the full
# paper grounding.
REGIME_DESCRIPTIONS: dict[str, str] = {
    REGIME_NOMINAL: (
        "well-conditioned visual-inertial motion — the shape every "
        "pre-scenario workload had"
    ),
    REGIME_TUNNEL: (
        "feature drought: texture-poor stretch where track counts decay "
        "to near zero and windows approach rank deficiency"
    ),
    REGIME_LOOP_CLOSURE: (
        "sudden large windows with revisited landmarks anchored far in "
        "the past (long tracks, observation counts spike)"
    ),
    REGIME_AGGRESSIVE: (
        "drone-flight dynamics: high angular rates and short, "
        "frequently broken tracks"
    ),
    REGIME_HIGHWAY: (
        "fast forward motion toward distant, low-parallax features near "
        "the focus of expansion"
    ),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A frozen, fully deterministic description of one workload regime.

    Attributes:
        name: presentation name (registry key for named scenarios).
        components: ``(regime, weight)`` pairs; a pure regime is a
            single component with weight 1. Mixture draws are seeded per
            window index, so a mixture is as reproducible as a pure
            regime.
        severity: in ``(0, 1]`` — how deep into the degenerate corner
            the generators push (1.0 is the hardest shape each regime
            produces while staying numerically solvable; the exactly
            singular limit lives in :mod:`repro.testing.faults`).
        seed: base seed folded into every downstream draw.
    """

    name: str
    components: tuple[tuple[str, float], ...]
    severity: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigurationError(
                f"scenario {self.name!r} needs at least one regime component"
            )
        for regime, weight in self.components:
            if regime not in REGIMES:
                raise ConfigurationError(
                    f"scenario {self.name!r} references unknown regime "
                    f"{regime!r}; choose from {list(REGIMES)}"
                )
            if not weight > 0.0:
                raise ConfigurationError(
                    f"scenario {self.name!r}: component {regime!r} weight "
                    f"must be positive, got {weight}"
                )
        if not 0.0 < self.severity <= 1.0:
            raise ConfigurationError(
                f"scenario {self.name!r}: severity must be in (0, 1], "
                f"got {self.severity}"
            )

    @property
    def is_mixture(self) -> bool:
        return len(self.components) > 1

    def regime_at(self, window_index: int) -> str:
        """The regime governing window ``window_index``.

        Pure scenarios always return their single regime; mixtures draw
        from the component weights with a seed derived from
        ``(self.seed, window_index)``, so the per-window regime sequence
        is frozen by the spec alone.
        """
        if not self.is_mixture:
            return self.components[0][0]
        rng = rng_from_seed(split_seed(self.seed, f"{self.name}:mix:{window_index}"))
        total = sum(weight for _, weight in self.components)
        pick = rng.uniform(0.0, total)
        acc = 0.0
        for regime, weight in self.components:
            acc += weight
            if pick <= acc:
                return regime
        return self.components[-1][0]

    def label(self) -> str:
        if self.is_mixture:
            parts = "+".join(regime for regime, _ in self.components)
            return f"{self.name}({parts}, severity={self.severity:g})"
        return f"{self.name}(severity={self.severity:g})"


def pure(regime: str, severity: float = 1.0, seed: int = 0) -> ScenarioSpec:
    """A single-regime spec (validated against the registry)."""
    return ScenarioSpec(
        name=regime, components=((regime, 1.0),), severity=severity, seed=seed
    )


def mixture(
    components: dict[str, float] | tuple[tuple[str, float], ...],
    name: str = "mixed",
    severity: float = 1.0,
    seed: int = 0,
) -> ScenarioSpec:
    """A seeded mixture of regimes with the given weights."""
    if isinstance(components, dict):
        components = tuple(sorted(components.items()))
    return ScenarioSpec(
        name=name, components=tuple(components), severity=severity, seed=seed
    )


# Named scenarios the CLI/matrix/loadgen resolve by string. "mixed" is
# the canonical seeded mixture of all four degenerate regimes.
SCENARIOS: dict[str, ScenarioSpec] = {
    **{regime: pure(regime) for regime in REGIMES},
    "mixed": mixture({regime: 1.0 for regime in DEGENERATE_REGIMES}),
}


def available_scenarios() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(SCENARIOS)


def resolve_scenario(scenario: str | ScenarioSpec) -> ScenarioSpec:
    """Look up a named scenario (pass-through for specs), with
    did-you-mean on typos."""
    if isinstance(scenario, ScenarioSpec):
        return scenario
    return lookup("scenario", scenario, SCENARIOS)
