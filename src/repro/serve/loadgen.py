"""Deterministic load generation: profiles and seeded arrival processes.

Two arrival disciplines, both classic serving-benchmark shapes:

* **open-loop Poisson** — each session's windows become ready at seeded
  exponential inter-arrival times, independent of service progress (the
  discipline that exposes queueing collapse under overload);
* **closed-loop** — each robot submits its next window a fixed think
  time after the previous one completes (arrival rate self-limits to
  service capacity, the discipline real robots follow).

A :class:`LoadProfile` bundles the arrival process with fleet shape
(sessions, accelerator instances), scheduler knobs (queue bound,
backpressure thresholds, batch size, deadline), and the dataset mix.
Profiles are frozen dataclasses: the profile plus its seed fully
determines the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.data.sequences import EUROC_SEQUENCES, KITTI_SEQUENCES, SequenceConfig
from repro.errors import ConfigurationError
from repro.utils.rng import rng_from_seed, split_seed
from repro.utils.validation import lookup


@dataclass(frozen=True)
class LoadProfile:
    """Everything needed to deterministically replay one load pattern."""

    name: str
    description: str = ""
    num_sessions: int = 8
    num_instances: int = 2
    arrival: str = "poisson"  # "poisson" (open-loop) | "closed" (closed-loop)
    rate_hz: float = 4.0  # per-session window arrival rate (open-loop)
    think_time_s: float = 0.05  # completion -> next submission (closed-loop)
    duration_s: float = 10.0  # virtual-time horizon for new arrivals
    sequence_duration_s: float = 3.0  # length of each robot's recording
    window_size: int = 6
    deadline_s: float = 0.25  # per-window latency budget
    max_queue: int = 64  # hard bound; beyond it windows are shed
    backpressure: int = 12  # queue depth where degradation kicks in
    degrade_drop: int = 2  # NLS iterations dropped while degraded
    max_pending_per_session: int = 4  # per-robot backlog before shedding
    batch_size: int = 4  # micro-batch cap per dispatch
    design: str = "High-Perf"  # named Tbl. 2 design backing the pool
    scenario: str = ""  # "" = catalog mix; else a repro.scenarios regime
    # Fleet-planning knobs (repro.portfolio). portfolio="" keeps the
    # homogeneous named-design pool; a forecast name solves a portfolio
    # and deploys its mixed configs across the instances.
    portfolio: str = ""  # "" = homogeneous pool; else a traffic forecast
    portfolio_configs: int = 0  # cap on distinct configs (0 = solver default)
    reconfig_after: int = 0  # drift batches before a swap (0 = never)
    # Learned runtime control (repro.runtime.policy). "" keeps the 2-bit
    # counter + fixed admission regimes; a "*.json" path loads a frozen
    # POLICY.json artifact; any other name resolves a registered
    # PolicyTrainSpec through the engine's content-addressed POLICY
    # stage. Either way the weights are frozen before the run starts, so
    # the profile + artifact still fully determine the metrics.
    policy: str = ""
    seed: int = 0

    # Validation names the offending field so a bad override in a CLI
    # flag or profile table is a one-look diagnosis, not a guessing game
    # over an aggregate message.
    _AT_LEAST_ONE = (
        "num_sessions",
        "num_instances",
        "window_size",
        "max_queue",
        "batch_size",
        "max_pending_per_session",
    )
    _NON_NEGATIVE = ("degrade_drop", "portfolio_configs", "reconfig_after")
    _POSITIVE = (
        "rate_hz",
        "think_time_s",
        "duration_s",
        "sequence_duration_s",
        "deadline_s",
    )

    def __post_init__(self) -> None:
        for name in self._AT_LEAST_ONE:
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.arrival not in ("poisson", "closed"):
            raise ConfigurationError(
                f"arrival must be 'poisson' or 'closed', got {self.arrival!r}"
            )
        for name in self._POSITIVE:
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.backpressure > self.max_queue:
            raise ConfigurationError(
                f"backpressure ({self.backpressure}) must be <= "
                f"max_queue ({self.max_queue})"
            )
        if self.scenario:
            from repro.scenarios import resolve_scenario

            resolve_scenario(self.scenario)  # raises with did-you-mean
        if self.portfolio:
            from repro.portfolio import resolve_forecast

            resolve_forecast(self.portfolio)  # raises with did-you-mean
        if self.policy and not self.policy.endswith(".json"):
            from repro.runtime.policy import resolve_policy_spec

            resolve_policy_spec(self.policy)  # raises with did-you-mean
        for name in self._NON_NEGATIVE:
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.reconfig_after > 0 and not self.portfolio:
            raise ConfigurationError(
                "reconfig_after needs a portfolio: a homogeneous pool has "
                "nothing to swap to"
            )


# The dataset mix: sessions cycle through the catalog, so a fleet larger
# than the catalog re-uses sequence configs — which is exactly what makes
# the engine's artifact cache visible in the serve telemetry.
_CATALOG_CYCLE = tuple(
    ("euroc", name) for name in sorted(EUROC_SEQUENCES)
) + tuple(("kitti", name) for name in sorted(KITTI_SEQUENCES))


def session_sequence_config(profile: LoadProfile, session_id: int) -> SequenceConfig:
    """The catalog sequence backing one session, at the profile length.

    A scenario-tagged profile replaces the catalog mix with the regime's
    synthetic recordings: each session gets the deterministic
    :func:`repro.scenarios.scenario_sequence_config` for its id, so
    degrade/shed behaviour is exercised by realistic degenerate inputs
    rather than hand-injected faults.
    """
    if profile.scenario:
        from repro.scenarios import scenario_sequence_config

        return scenario_sequence_config(
            profile.scenario, session_id, duration=profile.sequence_duration_s
        )
    kind, name = _CATALOG_CYCLE[session_id % len(_CATALOG_CYCLE)]
    catalog = EUROC_SEQUENCES if kind == "euroc" else KITTI_SEQUENCES
    return replace(catalog[name], duration=profile.sequence_duration_s)


def open_loop_arrivals(
    profile: LoadProfile, session_id: int, num_windows: int
) -> list[float]:
    """Seeded Poisson arrival times for one open-loop session.

    At most ``num_windows`` arrivals (a recording has finitely many
    keyframes) and none beyond the profile's virtual-time horizon.
    """
    rng = rng_from_seed(split_seed(profile.seed, f"arrivals:{session_id}"))
    times: list[float] = []
    t = float(rng.exponential(1.0 / profile.rate_hz))
    while t < profile.duration_s and len(times) < num_windows:
        times.append(t)
        t += float(rng.exponential(1.0 / profile.rate_hz))
    return times


def closed_loop_start(profile: LoadProfile, session_id: int) -> float:
    """Seeded start offset of one closed-loop session (staggers the fleet)."""
    rng = rng_from_seed(split_seed(profile.seed, f"start:{session_id}"))
    return float(rng.uniform(0.0, profile.think_time_s + 1.0 / profile.rate_hz))


def _profile(name: str, description: str, **overrides) -> LoadProfile:
    return LoadProfile(name=name, description=description, **overrides)


PROFILES: dict[str, LoadProfile] = {
    "smoke": _profile(
        "smoke",
        "CI-sized open-loop run: 8 sessions on 2 instances, under capacity",
        num_sessions=8,
        num_instances=2,
        rate_hz=4.0,
        duration_s=8.0,
        sequence_duration_s=3.0,
    ),
    "steady": _profile(
        "steady",
        "16 sessions on 4 instances at moderate utilization",
        num_sessions=16,
        num_instances=4,
        rate_hz=4.0,
        duration_s=12.0,
        sequence_duration_s=6.0,
    ),
    # Note the queue-depth invariant: each session keeps at most one
    # window in the scheduler (single-inflight rule), so depth is
    # bounded by num_sessions — an overload profile must set max_queue
    # *below* the session count or admission-level shedding can never
    # trigger.
    "overload": _profile(
        "overload",
        "12 sessions burst-arriving on 1 instance: exercises backpressure "
        "degradation, admission shedding, and per-session backlog shedding",
        num_sessions=12,
        num_instances=1,
        rate_hz=60.0,
        duration_s=2.0,
        sequence_duration_s=4.0,
        max_queue=8,
        backpressure=4,
        deadline_s=0.05,
        max_pending_per_session=2,
    ),
    "closed-loop": _profile(
        "closed-loop",
        "8 robots in closed loop on 2 instances (self-limiting arrivals)",
        arrival="closed",
        num_sessions=8,
        num_instances=2,
        think_time_s=0.03,
        duration_s=8.0,
        sequence_duration_s=3.0,
    ),
    # Scenario-tagged profiles: the regime's synthetic recordings replace
    # the catalog mix (see session_sequence_config). The two hard regimes
    # carry overload-shaped scheduler knobs — max_queue below the session
    # count (the single-inflight rule bounds depth by num_sessions) and a
    # tight deadline — so DEGRADE and SHED trigger from the regime's own
    # arrival pressure, with zero errors expected.
    "scenario-tunnel": _profile(
        "scenario-tunnel",
        "12 drones burst-arriving through a feature-drought tunnel on 1 "
        "instance: cheap windows at very high rate, shedding at admission",
        num_sessions=12,
        num_instances=1,
        rate_hz=200.0,
        duration_s=2.0,
        sequence_duration_s=3.0,
        max_queue=4,
        backpressure=2,
        deadline_s=0.02,
        max_pending_per_session=1,
        scenario="tunnel",
    ),
    "scenario-loop-closure": _profile(
        "scenario-loop-closure",
        "8 cars hitting loop closures on 1 instance: sudden large windows "
        "overload service capacity",
        num_sessions=8,
        num_instances=1,
        rate_hz=40.0,
        duration_s=2.0,
        sequence_duration_s=2.0,
        max_queue=5,
        backpressure=2,
        deadline_s=0.05,
        max_pending_per_session=2,
        scenario="loop_closure",
    ),
    "scenario-aggressive": _profile(
        "scenario-aggressive",
        "8 drones under aggressive flight on 2 instances (high angular "
        "rates, short tracks)",
        num_sessions=8,
        num_instances=2,
        rate_hz=8.0,
        duration_s=4.0,
        sequence_duration_s=3.0,
        scenario="aggressive",
    ),
    # The portfolio profile: the solved "mixed" forecast deploys a
    # heterogeneous pool, and each window runs on whichever instance
    # takes its batch, at that instance's config. CI's portfolio-smoke
    # job runs this on 2 shards; bench_portfolio.py uses a tuned variant
    # of the same shape. The description is exported in
    # SERVE_METRICS.json's profile section: rewording it changes every
    # portfolio-mixed metrics file.
    "portfolio-mixed": _profile(
        "portfolio-mixed",
        "8 robots over the mixed degenerate regimes on a 4-instance "
        "portfolio fleet served earliest-deadline-first",
        num_sessions=8,
        num_instances=4,
        rate_hz=4.0,
        duration_s=6.0,
        sequence_duration_s=3.0,
        scenario="mixed",
        portfolio="mixed",
    ),
    "scenario-highway": _profile(
        "scenario-highway",
        "8 cars at highway speed on 2 instances (distant low-parallax "
        "features)",
        num_sessions=8,
        num_instances=2,
        rate_hz=8.0,
        duration_s=4.0,
        sequence_duration_s=3.0,
        scenario="highway",
    ),
}


def available_profiles() -> list[str]:
    """All registered load-profile names, sorted."""
    return sorted(PROFILES)


def resolve_profile(name: str) -> LoadProfile:
    """Look up a named profile, with did-you-mean on typos."""
    return lookup("load profile", name, PROFILES)
