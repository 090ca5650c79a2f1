"""Tests for the sharded serving tier (``repro.serve.fleet``) and the
execution backends (``repro.serve.backend``).

The load-bearing properties:

* placement is deterministic, balanced (bounded loads), and draining a
  shard moves its sessions (plus at most a bounded overflow) while the
  rest stay put;
* an N-shard fleet run is the union of N standalone single-shard runs —
  per-shard metrics byte-identical;
* the process backend reproduces the thread backend's per-shard metrics
  byte for byte;
* the wire types (requests, outcomes, controllers) survive pickling,
  which is what the process backend rides on.
"""

import gc
import json
import multiprocessing
import os
import pickle
import signal
import threading
import time
import types
import weakref
from dataclasses import replace

import pytest

from repro.data.sequences import Sequence
from repro.engine import SEQUENCE, Engine
from repro.errors import ConfigurationError, ServeError
from repro.runtime.controller import RuntimeController
from repro.runtime.profiler import IterationTable
from repro.runtime.reconfig import build_reconfiguration_table
from repro.synth import high_perf_design
from repro.serve import (
    HashRing,
    LoadProfile,
    WindowOutcome,
    WindowRequest,
    merge_shard_metrics,
    plan_shards,
    resolve_profile,
    run_fleet,
    shard_service,
)
import repro.serve.backend as backend_module
from repro.serve.backend import ProcessBackend, ThreadBackend
from repro.serve.loadgen import session_sequence_config
from repro.serve.service import LocalizationService
from repro.serve.session import SessionBuild, SessionEstimator, SessionSpec
from repro.slam.estimator import SlidingWindowEstimator
from tests.test_serve import assert_obs_matches_metrics


NUMERICS = (Sequence, SlidingWindowEstimator, SessionEstimator)


def reachable_numerics(root, skip=()) -> set[str]:
    """Names of the numerics types reachable from ``root`` by following
    object references, not entering ``skip``, classes, modules or a
    function's globals (those lead to process-wide state)."""
    seen = {id(obj) for obj in skip}
    stack, found = [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, NUMERICS):
            found.add(type(obj).__name__)
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
            continue
        stack.extend(gc.get_referents(obj))
    return found


def fleet_profile(**overrides):
    base = dict(
        name="fleet-mini",
        num_sessions=6,
        num_instances=2,
        rate_hz=8.0,
        duration_s=1.0,
        sequence_duration_s=2.0,
        seed=11,
    )
    base.update(overrides)
    return LoadProfile(**base)


class TestHashRing:
    def test_assign_is_deterministic(self):
        ring = HashRing([0, 1, 2])
        again = HashRing([0, 1, 2])
        assigned = [ring.assign(sid) for sid in range(64)]
        assert assigned == [again.assign(sid) for sid in range(64)]
        assert set(assigned) <= {0, 1, 2}

    def test_preference_starts_at_home_and_covers_all_shards(self):
        ring = HashRing([0, 1, 2, 3])
        for sid in range(16):
            order = list(ring.preference(sid))
            assert order[0] == ring.assign(sid)
            assert sorted(order) == [0, 1, 2, 3]

    def test_removing_a_shard_moves_only_its_keys(self):
        full = HashRing([0, 1, 2])
        reduced = HashRing([0, 2])
        for sid in range(64):
            before = full.assign(sid)
            after = reduced.assign(sid)
            if before != 1:
                assert after == before
            else:
                assert after in (0, 2)

    def test_empty_ring_rejected(self):
        with pytest.raises(ConfigurationError):
            HashRing([])


class TestPlanShards:
    def test_partition_is_exact_and_ordered(self):
        profile = fleet_profile(num_sessions=16)
        specs = plan_shards(profile, 4)
        placed = sorted(sid for spec in specs for sid in spec.session_ids)
        assert placed == list(range(16))
        for spec in specs:
            assert list(spec.session_ids) == sorted(spec.session_ids)

    def test_bounded_loads(self):
        profile = fleet_profile(num_sessions=16)
        for shards in (2, 3, 4, 5):
            specs = plan_shards(profile, shards)
            cap = -(-16 // shards)
            assert all(len(spec.session_ids) <= cap for spec in specs)

    def test_instances_never_starved(self):
        profile = fleet_profile(num_sessions=8, num_instances=2)
        specs = plan_shards(profile, 4)
        assert all(spec.num_instances >= 1 for spec in specs)
        generous = plan_shards(fleet_profile(num_sessions=8, num_instances=6), 4)
        assert sum(spec.num_instances for spec in generous) == 6

    def test_repeat_determinism(self):
        profile = fleet_profile(num_sessions=16)
        assert plan_shards(profile, 4) == plan_shards(profile, 4)

    def test_drain_rehashes_deterministically(self):
        profile = fleet_profile(num_sessions=16)
        full = {
            sid: spec.shard_id
            for spec in plan_shards(profile, 4)
            for sid in spec.session_ids
        }
        drained = {
            sid: spec.shard_id
            for spec in plan_shards(profile, 4, drained={2})
            for sid in spec.session_ids
        }
        again = {
            sid: spec.shard_id
            for spec in plan_shards(profile, 4, drained={2})
            for sid in spec.session_ids
        }
        assert drained == again
        assert set(drained.values()).isdisjoint({2})
        moved = {sid for sid in full if full[sid] != drained[sid]}
        shard2 = {sid for sid in full if full[sid] == 2}
        # Every drained session moved; overflow rebalancing moves at
        # most a cap's worth of others.
        assert shard2 <= moved
        assert len(moved - shard2) <= len(shard2)

    def test_cannot_drain_everything(self):
        with pytest.raises(ConfigurationError):
            plan_shards(fleet_profile(), 2, drained={0, 1})

    def test_cannot_drain_an_unknown_shard(self):
        # A drain of a shard the fleet does not have would leave every
        # shard serving while the metrics reported it drained.
        with pytest.raises(ConfigurationError, match=r"\[2, 7\].*0\.\.1"):
            plan_shards(fleet_profile(), 2, drained={0, 2, 7})


class TestFleetRuns:
    def test_fleet_is_union_of_standalone_shards(self):
        profile = fleet_profile()
        report = run_fleet(profile, 2)
        for spec, shard_report in zip(report.specs, report.shard_reports):
            if shard_report is None:
                continue
            standalone = shard_service(
                profile, spec, engine=Engine(use_disk=False)
            ).run()
            assert json.dumps(shard_report.metrics, sort_keys=True) == json.dumps(
                standalone.metrics, sort_keys=True
            )

    def test_process_backend_matches_thread_backend(self):
        profile = fleet_profile()
        thread = run_fleet(profile, 2, backend="thread")
        process = run_fleet(profile, 2, backend="process")
        for t, p in zip(thread.shard_reports, process.shard_reports):
            if t is None:
                assert p is None
                continue
            assert json.dumps(t.metrics, sort_keys=True) == json.dumps(
                p.metrics, sort_keys=True
            )
        assert json.dumps(thread.metrics, sort_keys=True) == json.dumps(
            process.metrics, sort_keys=True
        )

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        profile = fleet_profile()
        first = run_fleet(profile, 2)
        second = run_fleet(profile, 2)
        a = first.write_metrics(tmp_path / "a.json")
        b = second.write_metrics(tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_merged_totals_are_sums(self):
        profile = fleet_profile()
        report = run_fleet(profile, 2)
        live = [r for r in report.shard_reports if r is not None]
        for key in ("windows_served", "windows_shed", "errors"):
            assert report.metrics["totals"][key] == sum(
                r.metrics["totals"][key] for r in live
            )
        assert report.metrics["totals"]["makespan_s"] == max(
            r.metrics["totals"]["makespan_s"] for r in live
        )
        assert report.metrics["latency_ms"]["count"] == sum(
            r.metrics["latency_ms"]["count"] for r in live
        )
        assert report.metrics["fleet"]["num_shards"] == 2

    def test_drained_fleet_serves_everything(self):
        profile = fleet_profile()
        report = run_fleet(profile, 3, drained={1})
        assert report.metrics["fleet"]["drained"] == [1]
        placed = sorted(
            sid for spec in report.specs for sid in spec.session_ids
        )
        assert placed == list(range(profile.num_sessions))
        assert {spec.shard_id for spec in report.specs} == {0, 2}

    def test_merge_requires_input(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            merge_shard_metrics([], fleet_profile(), 1)

    def test_obs_export_round_trips(self, tmp_path):
        report = run_fleet(fleet_profile(), 2)
        path = report.write_obs_metrics(tmp_path / "OBS_METRICS.json")
        data = json.loads(path.read_text())
        assert data["gauges"]["serve_num_shards"] == 2.0
        assert_obs_matches_metrics(data, report.metrics)

    def test_obs_export_matches_closed_loop_fleet(self, tmp_path):
        # Merged closed-loop histogram means are where a histogram rebuilt
        # from its mean_ms drifts in the last digits.
        profile = replace(
            resolve_profile("closed-loop"), num_sessions=4, duration_s=3.0
        )
        report = run_fleet(profile, 2)
        path = report.write_obs_metrics(tmp_path / "OBS_METRICS.json")
        assert_obs_matches_metrics(json.loads(path.read_text()), report.metrics)


class TestBackends:
    def test_process_backend_matches_thread_single_service(self):
        profile = fleet_profile(num_sessions=3, num_instances=2)
        thread = LocalizationService(
            profile, engine=Engine(use_disk=False), backend="thread"
        ).run()
        process = LocalizationService(
            profile, engine=Engine(use_disk=False), backend="process"
        ).run()
        assert json.dumps(thread.metrics, sort_keys=True) == json.dumps(
            process.metrics, sort_keys=True
        )

    def test_worker_count_does_not_change_metrics(self):
        profile = fleet_profile(num_sessions=3, num_instances=2)
        one = LocalizationService(
            profile, engine=Engine(use_disk=False), backend="process", workers=1
        ).run()
        three = LocalizationService(
            profile, engine=Engine(use_disk=False), backend="process", workers=3
        ).run()
        assert json.dumps(one.metrics, sort_keys=True) == json.dumps(
            three.metrics, sort_keys=True
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            LocalizationService(
                fleet_profile(), engine=Engine(use_disk=False), backend="fiber"
            ).run()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, backend, workers):
        with pytest.raises(ConfigurationError, match=f"workers must be >= 1, got {workers}"):
            LocalizationService(
                fleet_profile(),
                engine=Engine(use_disk=False),
                backend=backend,
                workers=workers,
            )

    def test_fleet_worker_count_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="workers must be >= 1, got 0"):
            run_fleet(fleet_profile(), 2, backend="process", workers=0)

    def test_thread_backend_runs_windows_inline_in_submission_order(self, monkeypatch):
        """The thread backend has no pool: a batch's windows run one after
        another on the thread that calls ``run_jobs``, in submission order."""
        calls = []

        class RecordingSession:
            def execute(self, request):
                calls.append((threading.get_ident(), request.seq))
                return types.SimpleNamespace(stats=None, newest_position_error=0.0)

        def build_recording(specs, engine):
            return {spec.session_id: RecordingSession() for spec in specs}, [
                SessionBuild(spec.session_id, "stub", (0, 0), 0.0) for spec in specs
            ]

        monkeypatch.setattr(backend_module, "build_sessions", build_recording)
        backend = ThreadBackend()
        backend.start([SessionSpec(sid, None, 6) for sid in range(3)], engine=None)
        backend.collect_builds()
        jobs = [
            WindowRequest(
                session_id=sid, frame_id=1, ready_time=0.0, deadline=1.0,
                iterations=1, config=None, reconfigured=False,
                degraded=False, seq=seq,
            )
            for seq, sid in ((7, 2), (8, 0), (9, 1))
        ]
        outcomes = backend.run_jobs(jobs)
        me = threading.get_ident()
        assert calls == [(me, 7), (me, 8), (me, 9)]
        assert [(o.session_id, o.seq) for o in outcomes] == [(2, 7), (0, 8), (1, 9)]

    def test_thread_backend_service_starts_no_thread(self, monkeypatch):
        """A thread-backend run executes every window on the thread that
        called ``run()``, and no other thread exists while it does."""
        seen = []
        execute = SessionEstimator.execute

        def sampling_execute(self, request):
            seen.append((threading.get_ident(), threading.active_count()))
            return execute(self, request)

        monkeypatch.setattr(SessionEstimator, "execute", sampling_execute)
        before = threading.active_count()
        LocalizationService(
            fleet_profile(num_sessions=3, num_instances=2), engine=Engine(use_disk=False)
        ).run()
        assert seen
        assert set(seen) == {(threading.get_ident(), before)}

    def test_process_backend_matches_thread_functional_fidelity(self):
        profile = fleet_profile(num_sessions=3, num_instances=2)
        thread, process = (
            LocalizationService(
                profile,
                engine=Engine(use_disk=False),
                fidelity="functional",
                backend=backend,
            ).run()
            for backend in ("thread", "process")
        )
        assert json.dumps(thread.metrics, sort_keys=True) == json.dumps(
            process.metrics, sort_keys=True
        )

    def test_cache_counts_match_thread_when_recordings_repeat_across_workers(self):
        """The catalog cycles every 16 sessions, so sessions 16 and 17
        repeat 0 and 1 — on other workers. The process backend must still
        count them as the thread oracle's one engine does: memo hits."""
        profile = replace(resolve_profile("smoke"), num_sessions=18, duration_s=2.0)
        thread, process = (
            LocalizationService(
                profile, engine=Engine(use_disk=False), backend=backend, workers=3
            ).run()
            for backend in ("thread", "process")
        )
        assert thread.metrics["cache"] == {"memo_hits": 3, "distinct_artifacts": 17}
        assert json.dumps(thread.metrics, sort_keys=True) == json.dumps(
            process.metrics, sort_keys=True
        )
        assert sorted(process.build_seconds) == list(range(18))
        assert "built in 3 worker process(es)" in process.cache_line

    def test_cache_counts_match_thread_when_setup_fetched_a_recording(self, monkeypatch):
        """Set-up may fetch a session's own recording through the
        service's engine after a process backend forked (training the
        default policy does). The worker then synthesizes it again, but
        the shard counts it as the thread oracle's engine serves it: a
        memo hit."""
        setup = LocalizationService._setup

        def setup_fetching_session_0(self):
            self.engine.run(SEQUENCE, session_sequence_config(self.profile, 0))
            return setup(self)

        profile = fleet_profile(num_sessions=3)
        plain = LocalizationService(profile, engine=Engine(use_disk=False)).run()
        monkeypatch.setattr(LocalizationService, "_setup", setup_fetching_session_0)
        thread, process = (
            LocalizationService(
                profile, engine=Engine(use_disk=False), backend=backend
            ).run()
            for backend in ("thread", "process")
        )
        assert thread.metrics["cache"] == {
            "memo_hits": plain.metrics["cache"]["memo_hits"] + 1,
            "distinct_artifacts": plain.metrics["cache"]["distinct_artifacts"],
        }
        assert json.dumps(thread.metrics, sort_keys=True) == json.dumps(
            process.metrics, sort_keys=True
        )

    def test_worker_exception_is_named_in_serve_error(self, monkeypatch):
        """An untyped exception inside a worker's run must reach the
        parent as a ServeError naming it, not as a dead pipe."""

        class BrokenSession:
            def execute(self, request):
                raise ValueError("boom")

        def build_broken(specs, engine):
            return {spec.session_id: BrokenSession() for spec in specs}, [
                SessionBuild(spec.session_id, "broken", (0, 0), 0.0)
                for spec in specs
            ]

        monkeypatch.setattr(backend_module, "build_sessions", build_broken)
        backend = ProcessBackend(1)
        backend.start([SessionSpec(0, None, 6)], engine=None)
        procs = list(backend._procs)
        try:
            assert [build.recording for build in backend.collect_builds()] == ["broken"]
            with pytest.raises(ServeError, match="ValueError: boom"):
                backend.run_jobs([
                    WindowRequest(
                        session_id=0, frame_id=1, ready_time=0.0, deadline=1.0,
                        iterations=1, config=None, reconfigured=False,
                        degraded=False, seq=0,
                    )
                ])
        finally:
            backend.stop()
        assert not any(proc.is_alive() for proc in procs)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parent_keeps_only_event_loop_views(self, backend, monkeypatch):
        """After prepare the service has let go of its engine (and the
        engine's memo of the recordings), and the session numerics live
        in the backend alone: in-process for the thread backend, only in
        the forked workers for the process backend — which also built
        them, so the parent never constructed a recording or an
        estimator at all."""
        constructed = []
        for cls in (Sequence, SessionEstimator):

            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                constructed.append((os.getpid(), type(self).__name__))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        engine = Engine(use_disk=False)
        engine_ref = weakref.ref(engine)
        service = LocalizationService(
            fleet_profile(num_sessions=2), engine=engine, backend=backend
        )
        del engine
        service.prepare()
        try:
            assert engine_ref() is None
            assert service.sessions and service.engine is None
            assert not reachable_numerics(service, skip=[service._backend])
            expected = (
                {"Sequence", "SlidingWindowEstimator", "SessionEstimator"}
                if backend == "thread"
                else set()
            )
            assert reachable_numerics(service._backend) == expected
            in_parent = [name for pid, name in constructed if pid == os.getpid()]
            if backend == "thread":
                assert sorted(in_parent) == ["Sequence"] * 2 + ["SessionEstimator"] * 2
            else:
                assert in_parent == []
        finally:
            service.close()

    def test_worker_exits_when_parent_end_closes(self):
        """A worker must not outlive its pipe: once the parent's end is
        closed without STOP (a dropped backend, a dead parent), the
        worker sees EOF and exits."""
        backend = ProcessBackend(1)
        backend.start([], engine=None)
        proc = backend._procs[0]
        try:
            backend._pipes[0].close()
            proc.join(timeout=5.0)
            assert not proc.is_alive()
            assert proc.exitcode == 0
        finally:
            backend.stop()


def wait_until(predicate, timeout_s=5.0):
    """Poll ``predicate`` until it holds or ``timeout_s`` passes."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestFleetFailure:
    def test_failed_prepare_stops_started_shards(self, monkeypatch):
        """When a shard's prepare raises, the workers of every shard the
        fleet already started are stopped before the error propagates —
        not left to garbage collection, which the held traceback defers."""
        real_prepare = LocalizationService.prepare
        calls = []

        def failing_prepare(service):
            real_prepare(service)
            calls.append(service.shard_id)
            if len(calls) == 2:
                raise RuntimeError("prepare failed")

        monkeypatch.setattr(LocalizationService, "prepare", failing_prepare)
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="prepare failed") as excinfo:
            run_fleet(fleet_profile(), 2, backend="process")
        assert len(calls) == 2
        # excinfo's traceback still references both shard services here.
        assert wait_until(
            lambda: not set(multiprocessing.active_children()) - before
        )
        assert excinfo.type is RuntimeError


def fail_build_of(monkeypatch, session_id, action):
    """Run ``action`` whenever session ``session_id``'s estimator is
    bootstrapped (in a worker, under the process backend)."""
    bootstrap = SessionEstimator.__post_init__

    def patched(self):
        if self.session_id == session_id:
            action()
        bootstrap(self)

    monkeypatch.setattr(SessionEstimator, "__post_init__", patched)


class TestBuildFailure:
    """Sessions are built in the workers; a failed or dead build must
    fail set-up with a ServeError that names it, and leave no worker of
    any started shard behind."""

    def test_failed_build_is_named_and_stops_every_worker(self, monkeypatch):
        def fail():
            raise RuntimeError("injected build failure")

        fail_build_of(monkeypatch, 1, fail)
        message = "building session 1 failed: RuntimeError: injected build failure"
        for backend in ("thread", "process"):
            service = LocalizationService(
                fleet_profile(num_sessions=3),
                engine=Engine(use_disk=False),
                backend=backend,
                workers=2,
            )
            with pytest.raises(ServeError, match=message):
                service.prepare()
            assert multiprocessing.active_children() == []
        with pytest.raises(ServeError, match=message):
            run_fleet(fleet_profile(), 2, backend="process")
        assert multiprocessing.active_children() == []

    def test_worker_killed_during_build_raises(self, monkeypatch):
        parent = os.getpid()

        def die():
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        fail_build_of(monkeypatch, 1, die)
        service = LocalizationService(
            fleet_profile(num_sessions=3),
            engine=Engine(use_disk=False),
            backend="process",
            workers=2,
        )
        with pytest.raises(
            ServeError, match=r"execution worker 1 died while building sessions \[1\]"
        ):
            service.prepare()
        assert multiprocessing.active_children() == []


def scenario_fleet_profile(regime, **overrides):
    """A small scenario-tagged profile with overload-shaped knobs, so the
    hard regimes exercise DEGRADE/SHED inside the fleet paths too."""
    base = dict(
        name=f"fleet-{regime}",
        num_sessions=6,
        num_instances=1,
        rate_hz=150.0,
        duration_s=0.6,
        sequence_duration_s=1.6,
        max_queue=2,
        backpressure=1,
        deadline_s=0.02,
        max_pending_per_session=1,
        scenario=regime,
        seed=13,
    )
    base.update(overrides)
    return LoadProfile(**base)


class TestHardRegimeFleet:
    """The fleet/backend equivalences must hold under the degenerate
    regimes, not just the nominal catalog mix — the scheduler takes the
    DEGRADE/SHED branches there, which the nominal tests never reach."""

    @pytest.mark.parametrize("regime", ["tunnel", "loop_closure"])
    def test_process_matches_thread_under_hard_regimes(self, regime):
        profile = scenario_fleet_profile(regime)
        thread = run_fleet(profile, 2, backend="thread")
        process = run_fleet(profile, 2, backend="process")
        for t, p in zip(thread.shard_reports, process.shard_reports):
            if t is None:
                assert p is None
                continue
            assert json.dumps(t.metrics, sort_keys=True) == json.dumps(
                p.metrics, sort_keys=True
            )
        assert json.dumps(thread.metrics, sort_keys=True) == json.dumps(
            process.metrics, sort_keys=True
        )

    @pytest.mark.parametrize("regime", ["tunnel", "loop_closure"])
    def test_fleet_is_union_of_standalone_shards_under_hard_regimes(self, regime):
        profile = scenario_fleet_profile(regime)
        report = run_fleet(profile, 2)
        for spec, shard_report in zip(report.specs, report.shard_reports):
            if shard_report is None:
                continue
            standalone = shard_service(
                profile, spec, engine=Engine(use_disk=False)
            ).run()
            assert json.dumps(shard_report.metrics, sort_keys=True) == json.dumps(
                standalone.metrics, sort_keys=True
            )

    def test_one_shard_fleet_matches_standalone_service(self):
        profile = scenario_fleet_profile("tunnel")
        fleet = run_fleet(profile, 1)
        standalone = LocalizationService(profile, engine=Engine(use_disk=False)).run()
        (shard_report,) = fleet.shard_reports
        shard = dict(shard_report.metrics)
        solo = dict(standalone.metrics)
        # The shard section legitimately differs (the shard carries its
        # placement spec); everything else must be byte-identical.
        shard.pop("shard"), solo.pop("shard")
        assert json.dumps(shard, sort_keys=True) == json.dumps(solo, sort_keys=True)

    def test_shard_count_conserves_arrivals(self):
        """Arrivals are per-session profile-seeded, so served + shed is
        invariant under resharding even though per-shard queues differ."""
        profile = scenario_fleet_profile("tunnel")
        one = run_fleet(profile, 1)
        two = run_fleet(profile, 2)
        for report in (one, two):
            assert report.metrics["totals"]["errors"] == 0
        arrivals_one = (
            one.metrics["totals"]["windows_served"]
            + one.metrics["totals"]["windows_shed"]
        )
        arrivals_two = (
            two.metrics["totals"]["windows_served"]
            + two.metrics["totals"]["windows_shed"]
        )
        assert arrivals_one == arrivals_two

    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_shard_count_conserves_per_config_counters(self, num_shards):
        """Per-config energy and window counts survive the shard merge.

        Each shard solves its own portfolio over its own instance slice,
        so resharding may change *which* configs serve *which* windows —
        but the merged per-config section must equal the exact per-shard
        sums, config by config (the regression fixed alongside the
        portfolio tier: merge used to drop the config breakout)."""
        profile = fleet_profile(
            num_sessions=8,
            num_instances=4,
            duration_s=2.0,
            scenario="mixed",
            portfolio="mixed",
            seed=0,
        )
        report = run_fleet(profile, num_shards)
        live = [r for r in report.shard_reports if r is not None]
        expected: dict[str, dict[str, float]] = {}
        for shard in live:
            for config in shard.metrics["configs"]:
                into = expected.setdefault(
                    config["config_id"],
                    {k: 0 for k in config if k != "config_id"},
                )
                for key, value in config.items():
                    if key != "config_id":
                        into[key] += value
        merged = {c["config_id"]: c for c in report.metrics["configs"]}
        assert sorted(merged) == sorted(expected)
        for config_id, sums in expected.items():
            for key, value in sums.items():
                assert merged[config_id][key] == value, (config_id, key)
        assert sum(
            c["windows_served"] for c in report.metrics["configs"]
        ) == report.metrics["totals"]["windows_served"]
        assert report.metrics["totals"]["energy_j"] == pytest.approx(
            sum(c["energy_j"] for c in report.metrics["configs"]), rel=1e-12
        )

    @pytest.mark.parametrize("regime", ["tunnel", "loop_closure"])
    def test_hard_regimes_exercise_the_shed_paths(self, regime):
        # One shard: splitting the fleet gives every shard its own
        # instance (capacity doubles), which can serve the cheap tunnel
        # windows without shedding — the saturated single shard is the
        # configuration that must take the DEGRADE/SHED branches.
        report = run_fleet(scenario_fleet_profile(regime), 1)
        totals = report.metrics["totals"]
        assert totals["windows_shed"] >= 1
        assert totals["windows_degraded"] >= 1
        assert totals["errors"] == 0


class TestWireTypesPickle:
    def test_window_request_round_trips(self):
        request = WindowRequest(
            session_id=3,
            frame_id=7,
            ready_time=0.25,
            deadline=0.5,
            iterations=4,
            config=None,
            reconfigured=True,
            degraded=False,
            seq=42,
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone.session_id == request.session_id
        assert clone.seq == request.seq
        assert clone.deadline == request.deadline

    def test_window_outcome_round_trips(self):
        outcome = WindowOutcome(
            session_id=1,
            frame_id=2,
            seq=9,
            stats=None,
            newest_position_error=0.125,
            error_type=None,
            error_message=None,
        )
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.ok
        assert clone.seq == 9
        assert clone.newest_position_error == 0.125

    def test_runtime_controller_round_trips(self):
        result = high_perf_design()
        controller = RuntimeController(
            table=IterationTable(),
            reconfig=build_reconfiguration_table(result.config, result.spec),
        )
        controller.iteration_policy(60)
        clone = pickle.loads(pickle.dumps(controller))
        # The mutable hysteresis state must travel too: both copies make
        # the same next decision.
        assert clone.iteration_policy(110) == controller.iteration_policy(110)
