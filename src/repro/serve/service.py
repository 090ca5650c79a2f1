"""The multi-session localization service: a virtual-time event loop.

The service is a discrete-event simulation over *virtual* seconds.
Events — window arrivals, batch completions, instances freeing up — live
in one heap ordered by ``(time, sequence number)``, so the schedule is a
total order and a seeded run is bit-reproducible. Real work still
happens: every served window runs the actual sliding-window NLS
optimization on an execution backend (:mod:`repro.serve.backend`) — on
the event-loop thread by default, in forked worker processes for true
multicore — but *when* things happen is decided entirely by the
analytical hardware latency model, never by wall-clock measurements, so
the metrics are byte-identical across backends.

Per event the loop does three things, always in the same order:

1. handle the event (ingest an arrival, complete a window, free an
   instance);
2. **pump**: every session that is READY submits its oldest pending
   window through admission control (shed / degrade / accept);
3. **dispatch**: every idle instance takes one earliest-deadline-first
   micro-batch off the queue; the batches' optimizations run on the
   backend while their virtual completion times are laid out
   back-to-back on the instance. On a portfolio pool with
   ``reconfig_after`` set, an instance whose batches keep drifting
   toward another config swaps to it between batches.

Sessions never have more than one window in flight (window ``n+1``
linearizes around ``n``'s estimate), which is also what makes the
per-session estimator/controller state thread-safe without locks.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.engine import SEQUENCE, design_reconfiguration, get_engine, named_design
from repro.errors import ConfigurationError, ServeError
from repro.hw.latency import window_latency_seconds
from repro.hw.power import DEFAULT_POWER_MODEL
from repro.obs.tracer import CLOCK_VIRTUAL, Trace
from repro.portfolio.reconfig import drift_candidate
from repro.runtime.controller import RuntimeController
from repro.runtime.profiler import IterationTable
from repro.serve.accelerator import AcceleratorInstance, make_pool
from repro.serve.backend import make_backend
from repro.serve.loadgen import (
    LoadProfile,
    closed_loop_start,
    open_loop_arrivals,
    session_sequence_config,
)
from repro.serve.scheduler import Admission, Scheduler
from repro.serve.session import (
    Session,
    SessionBuild,
    SessionSpec,
    SessionState,
    WindowRequest,
)
from repro.serve.telemetry import (
    METRICS_SCHEMA_VERSION,
    SessionMetrics,
    Telemetry,
    export_metrics,
    obs_metrics,
)

_ARRIVAL, _COMPLETE, _FREE = "arrival", "complete", "free"


@dataclass
class ServeReport:
    """Outcome of one serve run."""

    profile: LoadProfile
    metrics: dict  # deterministic; exactly what SERVE_METRICS.json holds
    cache_line: str  # live engine stats (stdout only — disk-state dependent)
    wall_seconds: float  # stdout only — never part of the metrics file
    trace: Trace | None = None  # virtual-time spans; deterministic
    # Wall-clock split (stdout/bench only): set-up (the start step plus
    # prepare) vs the event loop itself. wall_seconds is their sum.
    prepare_seconds: float = 0.0
    # Each session's build wall seconds on whatever built it (a process
    # worker, or the calling thread), by session id. Host timing: never
    # part of the metrics file.
    build_seconds: dict[int, float] | None = None

    def write_metrics(self, path: str | Path) -> Path:
        return export_metrics(self.metrics, path)

    def write_trace(self, path: str | Path) -> Path:
        """Export the virtual-time span trace as flat JSONL
        (byte-identical across repeats of a seeded run)."""
        if self.trace is None:
            raise ServeError("this report carries no trace")
        return self.trace.export_jsonl(path)

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Export the trace as Chrome ``trace_event`` JSON."""
        if self.trace is None:
            raise ServeError("this report carries no trace")
        return self.trace.export_chrome(path)

    def write_obs_metrics(self, path: str | Path) -> Path:
        """Export the run's counters/gauges/histograms as the canonical
        ``OBS_METRICS.json`` (a view of :attr:`metrics`)."""
        return export_metrics(obs_metrics(self.metrics), path)

    def render(self) -> str:
        totals = self.metrics["totals"]
        latency = self.metrics["latency_ms"]
        queue = self.metrics["queue"]
        batches = self.metrics["batches"]
        lines = [
            f"== serve: {self.profile.name} ==",
            (
                f"sessions {self.profile.num_sessions}  "
                f"instances {self.profile.num_instances}  "
                f"arrival {self.profile.arrival}  seed {self.profile.seed}"
            ),
            (
                f"served {totals['windows_served']}  "
                f"shed {totals['windows_shed']}  "
                f"degraded {totals['windows_degraded']}  "
                f"deadline-missed {totals['deadline_misses']}  "
                f"errors {totals['errors']}"
            ),
            (
                f"latency p50 {latency['p50_ms']:.2f} ms  "
                f"p95 {latency['p95_ms']:.2f} ms  "
                f"p99 {latency['p99_ms']:.2f} ms  "
                f"max {latency['max_ms']:.2f} ms"
            ),
            (
                f"throughput {totals['throughput_wps']:.1f} windows/s over "
                f"{totals['makespan_s']:.2f} virtual s  "
                f"(wall {self.wall_seconds:.2f} s)"
            ),
            (
                f"queue depth max {queue['depth_max']}  "
                f"mean {queue['depth_time_weighted_mean']:.2f}  "
                f"batch occupancy {batches['mean_occupancy']:.2f}"
            ),
            f"energy {totals['energy_j']:.3f} J across the fleet",
        ]
        return "\n".join(lines)


class LocalizationService:
    """Runs one :class:`LoadProfile` against a pool of accelerators."""

    def __init__(
        self,
        profile: LoadProfile,
        engine=None,
        fidelity: str = "analytical",
        backend: str = "thread",
        workers: int | None = None,
        session_ids: tuple[int, ...] | None = None,
        shard_id: int | None = None,
        decision_log: list | None = None,
    ) -> None:
        self.profile = profile
        self.engine = engine if engine is not None else get_engine()
        self.fidelity = fidelity
        self.backend_name = backend
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        # The session-id subset this service owns. None means the whole
        # profile; a fleet shard passes its consistent-hash slice. Ids
        # are *global*: arrival times and sequence configs are seeded
        # per id, so a shard run equals the same ids run standalone.
        self.session_ids = (
            tuple(range(profile.num_sessions))
            if session_ids is None
            else tuple(sorted(session_ids))
        )
        if not self.session_ids:
            raise ConfigurationError("a service needs at least one session id")
        self.shard_id = shard_id
        # Optional admission-feature log (policy training's teacher
        # data). Observing is free of side effects on the run itself:
        # the features are computed either way, and the log is never
        # part of the exported metrics.
        self._decision_log = decision_log
        self._event_seq = 0
        self._request_seq = 0
        self._events: list[tuple[float, int, str, int]] = []
        self._prepared = False
        self._backend = None
        self._start_seconds = 0.0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _setup(self) -> RuntimeController:
        """The parent's half of set-up: everything but the sessions.

        Design, reconfiguration table, policy, portfolio, pool, scheduler
        and telemetry; runs while a process backend's workers build.
        Returns the prototype controller the session views fork from.
        """
        profile = self.profile
        design = named_design(profile.design, self.engine)
        reconfig = design_reconfiguration(profile.design, self.engine)
        table = IterationTable()
        # Learned runtime control: resolve the profile's frozen policy
        # artifact (or train it through the content-addressed POLICY
        # stage) before the clock starts — the weights are read-only for
        # the whole run, shared across sessions and the scheduler.
        self.policy = None
        if profile.policy:
            from repro.runtime.policy import load_policy

            self.policy = load_policy(profile.policy, engine=self.engine)
        # One prototype controller holds the shared read-only tables;
        # every session forks its own counter state from it.
        prototype = RuntimeController(
            table=table, reconfig=reconfig, policy=self.policy
        )
        self.static_config = design.config
        self.reconfig = reconfig

        # Fleet planning: a portfolio profile solves the config mix for
        # its traffic forecast and deploys it across the pool; otherwise
        # every instance carries the named design's config. The solve is
        # pure (spec + seed -> solution), so shard runs and repeats
        # deploy byte-identical fleets.
        self.portfolio_solution = None
        pool_configs = [design.config] * profile.num_instances
        if profile.portfolio:
            from dataclasses import replace as dc_replace

            from repro.portfolio import (
                DEFAULT_RECONFIG_MODEL,
                default_portfolio_spec,
                resolve_forecast,
                solve_portfolio,
            )

            forecast = dc_replace(
                resolve_forecast(profile.portfolio),
                num_sessions=profile.num_sessions,
                rate_hz=profile.rate_hz,
                seed=profile.seed,
            )
            self.portfolio_solution = solve_portfolio(
                default_portfolio_spec(
                    forecast,
                    num_instances=profile.num_instances,
                    max_configs=profile.portfolio_configs,
                )
            )
            pool_configs = list(self.portfolio_solution.instance_configs())
            self.swap_model = DEFAULT_RECONFIG_MODEL
            self.portfolio_configs = tuple(
                sorted(set(pool_configs), key=lambda c: c.as_tuple())
            )
        self._drift_counts: dict[int, int] = {}

        self.pool: list[AcceleratorInstance] = make_pool(
            profile.num_instances, fidelity=self.fidelity, configs=pool_configs
        )
        self.scheduler = Scheduler(
            max_queue=profile.max_queue,
            backpressure=profile.backpressure,
            batch_size=profile.batch_size,
            policy=self.policy,
        )
        # Latency-SLO headroom state: an EWMA of served-window service
        # seconds, updated at completion accounting (virtual-time
        # ordered, so the learned admission features — and therefore the
        # decisions — are backend- and repeat-invariant).
        self._service_time_ewma = 0.0
        self._windows_accounted = 0
        self.telemetry = Telemetry()
        # All spans are stamped with virtual times from the (single
        # threaded) event loop, so the trace is byte-identical across
        # repeats and across wall-clock worker counts.
        trace_name = f"serve:{profile.name}"
        if self.shard_id is not None:
            trace_name = f"{trace_name}:shard{self.shard_id}"
        self.trace = Trace(clock=CLOCK_VIRTUAL, name=trace_name)
        return prototype

    def _add_sessions(
        self, builds: list[SessionBuild], prototype: RuntimeController
    ) -> None:
        """Build the event loop's views from the backend's build answers
        (session-id order) and schedule their first arrivals."""
        profile = self.profile
        self.sessions: dict[int, Session] = {}
        for build in builds:
            self.sessions[build.session_id] = Session(
                session_id=build.session_id,
                controller=prototype.for_session(),
                feature_counts=build.feature_counts,
                recording=build.recording,
            )
            self.telemetry.session(build.session_id, build.recording)
        if profile.arrival == "poisson":
            for session in self.sessions.values():
                for t in open_loop_arrivals(
                    profile, session.session_id, session.total_windows
                ):
                    self._push_event(t, _ARRIVAL, session.session_id)
        else:
            for session in self.sessions.values():
                if session.total_windows > 0:
                    self._push_event(
                        closed_loop_start(profile, session.session_id),
                        _ARRIVAL,
                        session.session_id,
                    )

    def _push_event(self, t: float, kind: str, payload: int) -> None:
        self._event_seq += 1
        heapq.heappush(self._events, (t, self._event_seq, kind, payload))

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def start(self) -> None:
        """First step of set-up: hand every session's build spec to a
        fresh execution backend (idempotent).

        The process backend forks its workers here, and they start
        synthesizing their sessions' recordings at once, so
        :func:`~repro.serve.fleet.run_fleet` calls this for every shard
        before it prepares any: shards build side by side. Forking from
        the calling thread before any shard loop starts also keeps fork
        away from a threaded process. :meth:`prepare` calls it when no
        one has.
        """
        if self._backend is not None:
            return
        started = time.perf_counter()
        profile = self.profile
        workers = self.workers if self.workers is not None else profile.num_instances
        self._specs = [
            SessionSpec(sid, session_sequence_config(profile, sid), profile.window_size)
            for sid in self.session_ids
        ]
        self._backend = make_backend(self.backend_name, workers)
        self._backend.start(self._specs, self.engine)
        self._start_seconds = time.perf_counter() - started

    def prepare(self) -> None:
        """Finish set-up: the parent's half, then the sessions' builds.

        Split from :meth:`run` so :func:`~repro.serve.fleet.run_fleet`
        can start and prepare every shard from the main thread before
        shard event loops start on threads. Sessions are built where they
        run: the backend builds them (a process backend in its workers,
        which began at :meth:`start`) while this thread designs the pool,
        and the service keeps only the views built from the answers. A
        failure here stops the backend's workers before it propagates.

        The run phase fetches no artifact, so the engine's part ends
        here: its cache numbers and stats line are read, and the service
        lets go of it. A fleet shard's private engine, and its memo, is
        then freed before the next shard prepares.
        """
        if self._prepared:
            return
        try:
            self.start()
            prep_started = time.perf_counter()
            stats = self.engine.stats
            memo_before = stats.memory_hits
            distinct_before = stats.computed + stats.disk_hits
            prototype = self._setup()
            memo_hits = stats.memory_hits - memo_before
            distinct = stats.computed + stats.disk_hits - distinct_before
            # Recordings count in session order as this engine serves
            # them to a thread backend, whichever process builds them: a
            # key's first occurrence is distinct unless the engine holds
            # it already, and every repeat is a memo hit. Counted before
            # the builds, which a thread backend runs through this engine.
            seen: set[str] = set()
            for spec in self._specs:
                key = self.engine.key_for(SEQUENCE, spec.sequence)
                if key in seen or self.engine.memoized(key):
                    memo_hits += 1
                else:
                    distinct += 1
                seen.add(key)
            builds = self._backend.collect_builds()
            self._add_sessions(builds, prototype)
        except BaseException:
            self.close()
            raise
        # Only run-invariant cache numbers belong in the metrics: blob-level
        # disk counters depend on whether a previous run warmed the cache,
        # and SERVE_METRICS.json must be byte-identical across repeats.
        self._cache = {"memo_hits": memo_hits, "distinct_artifacts": distinct}
        self._cache_line = self.engine.stats_line()
        if self._backend.name == "process":
            self._cache_line += (
                f" + {len(builds)} recording(s) built in "
                f"{self._backend.workers} worker process(es)"
            )
        self._build_seconds = {build.session_id: build.seconds for build in builds}
        self.engine = None
        self.prepare_seconds = self._start_seconds + (
            time.perf_counter() - prep_started
        )
        self._prepared = True

    def close(self) -> None:
        """Stop the execution backend and its workers (idempotent).

        :meth:`run` always closes; a caller that prepared a service but
        will not run it must close it instead.
        """
        if self._backend is not None:
            self._backend.stop()

    def run(self) -> ServeReport:
        self.prepare()
        started = time.perf_counter()
        try:
            while self._events:
                t, _, kind, payload = heapq.heappop(self._events)
                if kind == _ARRIVAL:
                    self.sessions[payload].on_arrival(t)
                elif kind == _COMPLETE:
                    self._on_complete(t, self.sessions[payload])
                # _FREE events carry no state change: they exist to wake
                # the dispatcher at the instant an instance goes idle.
                self._pump(t)
                self._dispatch(t)
        finally:
            self.close()

        for session in self.sessions.values():
            session.maybe_drain()
        # A session may end WAITING with frames remaining (the arrival
        # horizon closed mid-recording); what must NOT survive the loop
        # is in-flight work, per-session backlog, or queued requests.
        stuck = [
            s.session_id
            for s in self.sessions.values()
            if s.state is SessionState.INFLIGHT or s.pending
        ]
        if stuck or len(self.scheduler) > 0:
            raise ServeError(
                f"serve run ended with live state: sessions {stuck}, "
                f"queue depth {len(self.scheduler)}"
            )
        wall = time.perf_counter() - started
        return ServeReport(
            profile=self.profile,
            metrics=self._metrics(),
            cache_line=self._cache_line,
            wall_seconds=wall + self.prepare_seconds,
            trace=self.trace,
            prepare_seconds=self.prepare_seconds,
            build_seconds=self._build_seconds,
        )

    def _on_complete(self, t: float, session: Session) -> None:
        session.on_complete()
        profile = self.profile
        if profile.arrival == "closed":
            next_t = t + profile.think_time_s
            if session.frames_remaining and next_t < profile.duration_s:
                self._push_event(next_t, _ARRIVAL, session.session_id)
        session.maybe_drain()

    # ------------------------------------------------------------------
    # Pump: admission control + submission
    # ------------------------------------------------------------------

    _SERVICE_EWMA_ALPHA = 0.2

    def _slo_headroom(self) -> float:
        """Fraction of the deadline budget left at the recent
        service-time EWMA (1 = untouched, <= 0 = the EWMA alone already
        eats the whole per-window deadline)."""
        if self._windows_accounted == 0:
            return 1.0
        return 1.0 - self._service_time_ewma / self.profile.deadline_s

    def _account_service(self, session: Session, service_s: float, drift_m: float) -> None:
        """Fold one served window into the learned-control features.

        Runs at completion-accounting time on the event-loop thread —
        a deterministic point in the virtual-time total order.
        """
        self._service_time_ewma += self._SERVICE_EWMA_ALPHA * (
            service_s - self._service_time_ewma
        )
        self._windows_accounted += 1
        session.controller.observe_drift(drift_m)

    def _shed(
        self, session: Session, frame_id: int, metrics: SessionMetrics, t: float
    ) -> None:
        """Drop one frame unserved and count it.

        Sheds are estimator-mutating steps, so they route through the
        execution backend like served windows do: the backend owns the
        session estimators.
        """
        self._backend.shed(session.session_id, frame_id)
        self.scheduler.record_shed()
        self.telemetry.record_shed(metrics, t)

    def _pump(self, t: float) -> None:
        profile = self.profile
        headroom = self._slo_headroom()
        for session in self.sessions.values():
            if session.state is not SessionState.READY:
                # Backlog trimming below must wait too: frames have to
                # enter the estimator in order, and an INFLIGHT session
                # may still have its current frame queued un-ingested.
                continue
            metrics = self.telemetry.session(session.session_id)
            # A robot whose backlog outgrew its bound sheds its oldest
            # frames first (freshest data is worth the most).
            while len(session.pending) > profile.max_pending_per_session:
                frame_id, _ = session.take_pending()
                self._shed(session, frame_id, metrics, t)
            drift = session.controller.drift_estimate
            admission = self.scheduler.admit(headroom=headroom, drift=drift)
            if self._decision_log is not None:
                self._decision_log.append(
                    {
                        "queue_frac": len(self.scheduler) / profile.max_queue,
                        "band_frac": profile.backpressure / profile.max_queue,
                        "headroom": headroom,
                        "drift": drift,
                        "action": admission.value,
                    }
                )
            frame_id, ready_time = session.take_pending()
            if admission is Admission.SHED:
                self._shed(session, frame_id, metrics, t)
                session.maybe_drain()
                continue
            degraded = admission is Admission.DEGRADE
            iterations, config, reconfigured = session.controller.decide(
                session.front_end_feature_count(frame_id),
                degrade=profile.degrade_drop if degraded else 0,
            )
            self._request_seq += 1
            request = WindowRequest(
                session_id=session.session_id,
                frame_id=frame_id,
                ready_time=ready_time,
                deadline=ready_time + profile.deadline_s,
                iterations=iterations,
                config=config,
                reconfigured=reconfigured,
                degraded=degraded,
                seq=self._request_seq,
            )
            session.mark_inflight()
            self.scheduler.push(request)
            self.telemetry.sample_queue_depth(t, len(self.scheduler))

    # ------------------------------------------------------------------
    # Dispatch: micro-batches onto free instances
    # ------------------------------------------------------------------

    def _dispatch(self, t: float) -> None:
        assignments: list[tuple[AcceleratorInstance, list[WindowRequest]]] = []
        for instance in self.pool:
            if instance.free_at > t or len(self.scheduler) == 0:
                continue
            batch = self.scheduler.next_batch()
            if batch:
                assignments.append((instance, batch))
        if not assignments:
            return
        self.telemetry.sample_queue_depth(t, len(self.scheduler))

        # Execute every job of every batch on the backend; virtual-time
        # accounting below consumes results in submission order, so
        # where and in what order they ran cannot change the outcome.
        jobs = [request for _, batch in assignments for request in batch]
        results = self._backend.run_jobs(jobs)
        result_by_seq = {outcome.seq: outcome for outcome in results}
        # A portfolio pool is heterogeneous: windows run on the
        # instance's own deployed config at that config's power. The
        # homogeneous pool keeps the runtime-reconfiguration tier's
        # request-level config and gated power.
        portfolio = self.portfolio_solution is not None
        reconfiguring = (
            portfolio
            and self.profile.reconfig_after >= 1
            and len(self.portfolio_configs) >= 2
        )

        for instance, batch in assignments:
            self.telemetry.record_batch(len(batch))
            instance.batches += 1
            cursor = t
            for request in batch:
                session = self.sessions[request.session_id]
                metrics = self.telemetry.session(session.session_id)
                outcome = result_by_seq[request.seq]
                if not outcome.ok:
                    self.telemetry.errors += 1
                    session.on_complete()
                    session.maybe_drain()
                    continue
                charge = instance.charge(
                    outcome.stats,
                    instance.config if portfolio else request.config,
                    request.iterations,
                    request.reconfigured,
                )
                completion = cursor + charge.total_s
                energy = charge.compute_s * (
                    DEFAULT_POWER_MODEL.power(instance.config)
                    if portfolio
                    else self.reconfig.gated_power(request.iterations)
                )
                self.trace.add_span(
                    "queue_wait",
                    category="serve",
                    start_s=request.ready_time,
                    duration_s=t - request.ready_time,
                    depth=1,
                    session=request.session_id,
                    frame=request.frame_id,
                )
                if request.reconfigured:
                    # The reconfiguration rides the host link (the +3
                    # config bytes), so mark it with the transfer window.
                    self.trace.add_span(
                        "reconfig",
                        category="serve",
                        start_s=cursor,
                        duration_s=charge.transfer_s,
                        depth=1,
                        session=request.session_id,
                        nd=request.config.nd,
                        nm=request.config.nm,
                        s=request.config.s,
                    )
                self.trace.add_span(
                    "service",
                    category="serve",
                    start_s=cursor,
                    duration_s=charge.total_s,
                    depth=1,
                    session=request.session_id,
                    frame=request.frame_id,
                    iterations=request.iterations,
                    degraded=request.degraded,
                )
                self.telemetry.record_window(
                    metrics,
                    ready_time=request.ready_time,
                    dispatch_time=t,
                    completion_time=completion,
                    deadline=request.deadline,
                    iterations=request.iterations,
                    degraded=request.degraded,
                    reconfigured=request.reconfigured,
                    energy_j=energy,
                    drift_m=outcome.newest_position_error,
                    config_id=instance.config_id,
                    service_s=charge.total_s,
                )
                self._account_service(
                    session, charge.total_s, outcome.newest_position_error
                )
                instance.occupy(cursor, charge.total_s)
                cursor = completion
                self._push_event(completion, _COMPLETE, session.session_id)
            if cursor > t:
                self.trace.add_span(
                    "batch",
                    category="serve",
                    start_s=t,
                    duration_s=cursor - t,
                    instance=instance.instance_id,
                    occupancy=len(batch),
                )
                if reconfiguring:
                    self._maybe_reconfigure(
                        instance,
                        [
                            (request, result_by_seq[request.seq])
                            for request in batch
                            if result_by_seq[request.seq].ok
                        ],
                    )
                # free_at is the batch cursor unless the instance swapped.
                self._push_event(instance.free_at, _FREE, instance.instance_id)

    def _maybe_reconfigure(self, instance: AcceleratorInstance, batch) -> None:
        """Between-batch partial reconfiguration on sustained drift.

        After ``reconfig_after`` consecutive batches that another
        portfolio config would have served faster (by more than the swap
        model's margin), the instance swaps to that config, paying the
        model's virtual time and energy while offline. Runs only on a
        portfolio pool of at least two configs with ``reconfig_after`` set.
        """
        service_by_config = {
            config.label: sum(
                window_latency_seconds(
                    outcome.stats, config, request.iterations, instance.platform
                )
                for request, outcome in batch
            )
            for config in self.portfolio_configs
        }
        target = drift_candidate(
            instance.config,
            self.portfolio_configs,
            service_by_config,
            self.swap_model.improvement_margin,
        )
        if target is None:
            self._drift_counts[instance.instance_id] = 0
            return
        count = self._drift_counts.get(instance.instance_id, 0) + 1
        if count < self.profile.reconfig_after:
            self._drift_counts[instance.instance_id] = count
            return
        self._drift_counts[instance.instance_id] = 0
        swap = self.swap_model.swap_cost(instance.config, target)
        start = instance.free_at
        previous = instance.config_id
        instance.reconfigure(target, swap.seconds, start)
        self.telemetry.record_reconfig(
            instance.config_id, swap.seconds, swap.joules
        )
        self.trace.add_span(
            "partial_reconfig",
            category="serve",
            start_s=start,
            duration_s=swap.seconds,
            instance=instance.instance_id,
            from_config=previous,
            to_config=instance.config_id,
        )

    # ------------------------------------------------------------------
    # Metrics assembly
    # ------------------------------------------------------------------

    def _metrics(self) -> dict:
        metrics = self.telemetry.as_dict()
        horizon = self.telemetry.end_time_s
        metrics["schema"] = METRICS_SCHEMA_VERSION
        metrics["profile"] = asdict(self.profile)
        metrics["fidelity"] = self.fidelity
        metrics["scheduler"] = self.scheduler.as_dict()
        metrics["instances"] = [
            instance.as_dict(horizon) for instance in self.pool
        ]
        metrics["design"] = {
            "name": self.profile.design,
            "nd": self.static_config.nd,
            "nm": self.static_config.nm,
            "s": self.static_config.s,
        }
        # The learned runtime policy in force (empty name = the 2-bit
        # counter + fixed-regime baseline). The digest pins exactly
        # which frozen weights produced these numbers.
        metrics["policy"] = (
            {
                "name": self.policy.name,
                "digest": self.policy.digest,
                "source": self.profile.policy,
            }
            if self.policy is not None
            else {"name": ""}
        )
        # The solved fleet portfolio (empty name = homogeneous pool).
        # PortfolioSolution.as_dict() holds no timing fields, so this
        # stays byte-identical across repeats and backends.
        metrics["portfolio"] = (
            self.portfolio_solution.as_dict()
            if self.portfolio_solution is not None
            else {"name": ""}
        )
        # Which slice of the fleet this run served. Deliberately free of
        # backend/worker facts: the same shard must export byte-identical
        # metrics under the thread oracle and the process backend.
        metrics["shard"] = {
            "shard_id": -1 if self.shard_id is None else self.shard_id,
            "session_ids": list(self.session_ids),
            "num_sessions": len(self.session_ids),
        }
        metrics["cache"] = dict(self._cache)
        return metrics


def run_profile(
    profile: LoadProfile,
    engine=None,
    fidelity: str = "analytical",
    backend: str = "thread",
    workers: int | None = None,
) -> ServeReport:
    """Convenience wrapper: build the service and run it once."""
    return LocalizationService(
        profile, engine=engine, fidelity=fidelity, backend=backend, workers=workers
    ).run()
