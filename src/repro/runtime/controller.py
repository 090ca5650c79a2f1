"""The host-side run-time controller (Sec. 6.2).

Per sliding window: read the tracked-feature count from the sensing
front-end, map it to an iteration count through the offline table,
smooth with the 2-bit saturating counter, look up the memoized gated
configuration, and (if it changed) pass the three numbers to the FPGA.
:func:`replay_windows` does the energy bookkeeping every Sec. 7.6
experiment reports: per-window energy with and without the dynamic
optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.stats import WindowStats
from repro.hw.config import HardwareConfig
from repro.hw.latency import window_latency_seconds
from repro.hw.power import DEFAULT_POWER_MODEL
from repro.runtime.counter import TwoBitSaturatingCounter
from repro.runtime.profiler import IterationTable, MAX_ITERATIONS
from repro.runtime.reconfig import ReconfigurationTable


@dataclass(frozen=True)
class WindowDecision:
    """What the controller decided for one window, with its energy."""

    feature_count: int
    proposed_iterations: int
    applied_iterations: int
    config: HardwareConfig
    reconfigured: bool
    energy_j: float
    static_energy_j: float  # what the static design would have burned


@dataclass(slots=True)
class RuntimeController:
    """Drives the accelerator's dynamic re-optimization.

    ``slots=True`` + picklable: a serving session (controller included)
    crosses the process-backend fork boundary, and a fleet serves one
    controller per session — slots keep the per-session footprint flat
    and catch stray attribute writes.

    Concurrency contract (the multi-session serving tier relies on it):
    the lookup tables — ``table`` (:class:`IterationTable`) and
    ``reconfig`` (:class:`ReconfigurationTable`) — are frozen dataclasses
    solved offline, so one memoized instance of each is safely **shared
    read-only** across every concurrent session. The *mutable* state —
    the 2-bit saturating counter, the active gated configuration, and
    the drift estimate — is per-controller, so each session must own its
    own ``RuntimeController`` (see :meth:`for_session`). A controller
    instance itself is single-session: it is not internally locked, and
    interleaving two robots' feature streams through one counter would
    cross-contaminate their hysteresis state.
    """

    table: IterationTable
    reconfig: ReconfigurationTable
    # The learned-control seam: a frozen ControllerPolicy
    # (repro.runtime.policy) replaces table lookup + counter smoothing
    # with its per-cap contextual-bandit heads. None keeps the paper's
    # counter path bit-identical — the differential oracle the learned
    # path is gated against. The policy object is frozen/shared-safe,
    # so for_session() passes it through by reference.
    policy: object | None = None
    _counter: TwoBitSaturatingCounter = field(init=False, repr=False)
    _active: HardwareConfig = field(init=False, repr=False)
    _drift_ewma: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._counter = TwoBitSaturatingCounter(initial=MAX_ITERATIONS)
        self._active = self.reconfig.static_config
        self._drift_ewma = 0.0

    def for_session(self) -> "RuntimeController":
        """A fresh controller sharing this one's read-only tables.

        The returned instance has its own saturating counter, active
        configuration and drift estimate — the pattern for serving many
        robots against one offline-solved memo.
        """
        return RuntimeController(
            table=self.table, reconfig=self.reconfig, policy=self.policy
        )

    @property
    def drift_estimate(self) -> float:
        """EWMA of the session's observed per-window drift [m] — the
        learned policy's context feature. 0.0 until first observation."""
        return self._drift_ewma

    def observe_drift(self, drift_m: float) -> None:
        """Feed one served window's drift back into the EWMA.

        Called by the serving tier at completion-accounting time, which
        is a deterministic point in virtual time — so the feature stream
        (hence every learned decision) is identical across execution
        backends and repeats.
        """
        alpha = getattr(self.policy, "drift_alpha", 0.2)
        self._drift_ewma += alpha * (drift_m - self._drift_ewma)

    def iteration_policy(self, feature_count: int) -> int:
        """Adapter for the estimator's ``iteration_policy`` hook: applies
        table lookup + saturating-counter smoothing."""
        proposal = self.table.lookup(feature_count)
        return self._counter.update(proposal)

    def decide(
        self, feature_count: int, degrade: int = 0
    ) -> tuple[int, HardwareConfig, bool]:
        """Pre-optimization decision for one window.

        Returns ``(applied_iterations, gated_config, reconfigured)``.
        ``degrade`` drops that many NLS iterations off the applied count
        (floored at 1) — the serving tier's backpressure knob. The
        saturating counter is always fed the *undegraded* proposal, so a
        transient overload does not pollute the hysteresis state.

        With a learned ``policy`` attached, the proposal comes from the
        policy's contextual iteration head (feature count + this
        session's drift EWMA) and the counter is bypassed: the policy's
        continuous heads do their own smoothing, and feeding its output
        through the counter would re-introduce the very lag the learned
        path exists to remove.
        """
        if self.policy is not None:
            applied = self.policy.iteration_cap(feature_count, self._drift_ewma)
        else:
            proposal = self.table.lookup(feature_count)
            applied = self._counter.update(proposal)
        if degrade > 0:
            applied = max(1, applied - degrade)
        config = self.reconfig.lookup(applied)
        reconfigured = config != self._active
        self._active = config
        return applied, config, reconfigured


@dataclass(frozen=True)
class ReplayResult:
    """The outcome of replaying a run through the controller.

    Everything the Sec. 7.6 experiments read — per-window decisions and
    the derived energy totals — without holding on to the live
    controller. The per-Iter gated power stays on the design's
    :class:`~repro.runtime.reconfig.ReconfigurationTable`.
    """

    decisions: tuple[WindowDecision, ...]

    @property
    def total_energy_j(self) -> float:
        return sum(d.energy_j for d in self.decisions)

    @property
    def total_static_energy_j(self) -> float:
        return sum(d.static_energy_j for d in self.decisions)

    @property
    def energy_saving(self) -> float:
        """Fractional energy saved vs the static design (Sec. 7.6)."""
        static = self.total_static_energy_j
        return 1.0 - self.total_energy_j / static if static > 0 else 0.0

    @property
    def num_reconfigurations(self) -> int:
        return sum(1 for d in self.decisions if d.reconfigured)


def replay_windows(
    stats_list: list[WindowStats],
    table: IterationTable,
    reconfig: ReconfigurationTable,
) -> ReplayResult:
    """Replay per-window workload statistics through a fresh controller.

    The experiments and the examples call this on a cached estimator
    run's window statistics (milliseconds of table lookups and Equ. 13
    arithmetic per run) instead of hand-rolling the per-window loop: a
    fresh controller sees the same feature counts the live run saw, so
    its decisions — and therefore the energy bookkeeping — are
    identical. Each window is charged its gated design's energy
    (Equ. 13 latency at the applied ``Iter`` times the gated power, on
    the ZC706 clock) against what the static design would have burned
    at ``MAX_ITERATIONS``.
    """
    controller = RuntimeController(table=table, reconfig=reconfig)
    static_config = reconfig.static_config
    static_power = DEFAULT_POWER_MODEL.power(static_config)
    decisions = []
    for stats in stats_list:
        proposal = table.lookup(stats.num_features)
        applied, config, reconfigured = controller.decide(stats.num_features)
        seconds = window_latency_seconds(stats, config, applied)
        static_seconds = window_latency_seconds(stats, static_config, MAX_ITERATIONS)
        decisions.append(
            WindowDecision(
                feature_count=stats.num_features,
                proposed_iterations=proposal,
                applied_iterations=applied,
                config=config,
                reconfigured=reconfigured,
                energy_j=seconds * reconfig.gated_power(applied),
                static_energy_j=static_seconds * static_power,
            )
        )
    return ReplayResult(decisions=tuple(decisions))
