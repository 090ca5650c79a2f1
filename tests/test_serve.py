"""Tests for the multi-session serving tier (``repro.serve``)."""

import json

import pytest

from repro.engine import Engine
from repro.errors import ConfigurationError, ServeError
from repro.serve import (
    Admission,
    LatencyHistogram,
    LoadProfile,
    LocalizationService,
    Scheduler,
    Telemetry,
    WindowRequest,
    available_profiles,
    open_loop_arrivals,
    resolve_profile,
    session_sequence_config,
)
from repro.serve.session import SessionState


def make_request(seq, deadline=1.0, session_id=0, degraded=False):
    return WindowRequest(
        session_id=session_id,
        frame_id=seq,
        ready_time=0.0,
        deadline=deadline,
        iterations=4,
        config=None,
        reconfigured=False,
        degraded=degraded,
        seq=seq,
    )


def mini_profile(**overrides):
    base = dict(
        name="mini",
        num_sessions=3,
        num_instances=2,
        rate_hz=8.0,
        duration_s=1.5,
        sequence_duration_s=2.0,
        seed=7,
    )
    base.update(overrides)
    return LoadProfile(**base)


def assert_obs_matches_metrics(obs: dict, metrics: dict) -> None:
    """Every ``OBS_METRICS.json`` counter, gauge and histogram equals the
    ``SERVE_METRICS.json`` field it names, and nothing else is exported."""
    totals = metrics["totals"]
    counters = {
        "serve_windows_served_total": totals["windows_served"],
        "serve_windows_shed_total": totals["windows_shed"],
        "serve_windows_degraded_total": totals["windows_degraded"],
        "serve_deadline_misses_total": totals["deadline_misses"],
        "serve_errors_total": totals["errors"],
        "serve_reconfigurations_total": totals["reconfigurations"],
        "serve_reconfig_energy_joules_total": totals["reconfig_energy_j"],
    }
    for config in metrics["configs"]:
        config_id = config["config_id"]
        counters[f"serve_config_windows_served_total:{config_id}"] = config["windows_served"]
        counters[f"serve_config_energy_joules_total:{config_id}"] = config["energy_j"]
    gauges = {
        "serve_queue_depth_max": metrics["queue"]["depth_max"],
        "serve_queue_depth_mean": metrics["queue"]["depth_time_weighted_mean"],
        "serve_makespan_seconds": totals["makespan_s"],
    }
    if "fleet" in metrics:
        gauges["serve_num_shards"] = metrics["fleet"]["num_shards"]
    assert obs["counters"] == counters
    assert obs["gauges"] == gauges
    assert obs["histograms"] == {
        "serve_latency_seconds": metrics["latency_ms"],
        "serve_queue_wait_seconds": metrics["queue_wait_ms"],
        "serve_service_seconds": metrics["service_ms"],
    }


def run_mini(profile, fidelity="analytical"):
    service = LocalizationService(
        profile, engine=Engine(use_disk=False), fidelity=fidelity
    )
    return service.run()


class TestLoadProfile:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            mini_profile(num_sessions=0)
        with pytest.raises(ConfigurationError):
            mini_profile(arrival="push")
        with pytest.raises(ConfigurationError):
            mini_profile(rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            mini_profile(backpressure=100, max_queue=10)
        with pytest.raises(ConfigurationError):
            mini_profile(deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            mini_profile(max_pending_per_session=0)
        with pytest.raises(ConfigurationError, match="window_size"):
            mini_profile(window_size=0)
        with pytest.raises(ConfigurationError, match="degrade_drop"):
            mini_profile(degrade_drop=-3)

    def test_registry_and_did_you_mean(self):
        assert {"smoke", "steady", "overload", "closed-loop"} <= set(
            available_profiles()
        )
        assert resolve_profile("smoke").name == "smoke"
        with pytest.raises(ConfigurationError, match="did you mean"):
            resolve_profile("smokey")

    def test_sessions_cycle_the_catalog(self):
        profile = mini_profile()
        names = {session_sequence_config(profile, i).name for i in range(4)}
        assert len(names) == 4
        config = session_sequence_config(profile, 0)
        assert config.duration == profile.sequence_duration_s

    def test_open_loop_arrivals_deterministic_and_bounded(self):
        profile = mini_profile()
        a = open_loop_arrivals(profile, 1, 100)
        b = open_loop_arrivals(profile, 1, 100)
        assert a == b
        assert a != open_loop_arrivals(profile, 2, 100)
        assert all(t < profile.duration_s for t in a)
        assert open_loop_arrivals(profile, 1, 3) == a[:3]
        assert a == sorted(a)


class TestScheduler:
    def test_admission_regimes(self):
        scheduler = Scheduler(max_queue=4, backpressure=2, batch_size=8)
        assert scheduler.admit() is Admission.ACCEPT
        scheduler.push(make_request(1))
        scheduler.push(make_request(2))
        assert scheduler.admit() is Admission.DEGRADE
        scheduler.push(make_request(3, degraded=True))
        scheduler.push(make_request(4, degraded=True))
        assert scheduler.admit() is Admission.SHED
        assert scheduler.as_dict()["degraded"] == 2

    def test_overflow_is_a_typed_error(self):
        scheduler = Scheduler(max_queue=1, backpressure=1)
        scheduler.push(make_request(1))
        with pytest.raises(ServeError, match="admission control bypassed"):
            scheduler.push(make_request(2))

    def test_batches_pop_earliest_deadline_first(self):
        scheduler = Scheduler(batch_size=2)
        scheduler.push(make_request(1, deadline=3.0))
        scheduler.push(make_request(2, deadline=1.0))
        scheduler.push(make_request(3, deadline=2.0))
        first = scheduler.next_batch()
        assert [r.deadline for r in first] == [1.0, 2.0]
        assert [r.deadline for r in scheduler.next_batch()] == [3.0]
        assert scheduler.next_batch() == []

    def test_equal_deadlines_break_ties_by_submission_order(self):
        scheduler = Scheduler(batch_size=4)
        for seq in (5, 2, 9):
            scheduler.push(make_request(seq, deadline=1.0))
        assert [r.seq for r in scheduler.next_batch()] == [2, 5, 9]


class TestTelemetry:
    def test_histogram_percentiles(self):
        histogram = LatencyHistogram()
        for ms in range(1, 101):
            histogram.record(ms * 1e-3)
        assert histogram.total == 100
        # Bin upper edges overestimate by at most one bin width (~12%).
        assert 0.050 <= histogram.percentile(0.50) <= 0.057
        assert 0.095 <= histogram.percentile(0.95) <= 0.107
        assert histogram.percentile(0.99) <= histogram.max_s == 0.1
        assert histogram.as_dict()["count"] == 100

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.99) == 0.0
        assert histogram.mean_s == 0.0

    def test_queue_depth_is_time_weighted(self):
        telemetry = Telemetry()
        telemetry.sample_queue_depth(0.0, 4)  # depth 4 over [0, 2)
        telemetry.sample_queue_depth(2.0, 0)  # depth 0 over [2, 4)
        telemetry.end_time_s = 4.0
        assert telemetry.queue_depth_mean() == pytest.approx(2.0)
        assert telemetry.queue_depth_max == 4


class TestSessionStateMachine:
    @pytest.fixture(scope="class")
    def service(self):
        service = LocalizationService(
            mini_profile(num_sessions=1), engine=Engine(use_disk=False)
        )
        service.prepare()
        service.close()
        return service

    def test_arrival_and_backlog_ordering(self, service):
        session = service.sessions[0]
        assert session.state is SessionState.WAITING
        assert session.on_arrival(0.1) and session.on_arrival(0.2)
        assert session.state is SessionState.READY
        assert session.take_pending() == (1, 0.1)
        assert session.take_pending() == (2, 0.2)
        assert session.state is SessionState.WAITING
        with pytest.raises(ServeError):
            session.take_pending()

    def test_inflight_transitions_guarded(self, service):
        session = service.sessions[0]
        session.mark_inflight()
        with pytest.raises(ServeError):
            session.mark_inflight()
        session.on_complete()
        with pytest.raises(ServeError):
            session.on_complete()


class TestServeRuns:
    def test_metrics_bit_identical_across_runs(self):
        profile = mini_profile()
        dumps = [
            json.dumps(run_mini(profile).metrics, sort_keys=True, indent=2)
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]

    def test_basic_accounting(self):
        report = run_mini(mini_profile())
        totals = report.metrics["totals"]
        assert totals["errors"] == 0
        assert totals["windows_served"] > 0
        assert totals["throughput_wps"] > 0
        served = sum(
            s["windows_served"] for s in report.metrics["sessions"]
        )
        assert served == totals["windows_served"]
        assert report.metrics["latency_ms"]["count"] == totals["windows_served"]
        assert totals["energy_j"] > 0
        assert report.metrics["schema"] == 1
        # Wall-clock never leaks into the exported (deterministic) dict.
        assert "wall" not in json.dumps(report.metrics)

    def test_overload_sheds_and_degrades_gracefully(self):
        profile = mini_profile(
            num_sessions=6,
            num_instances=1,
            rate_hz=80.0,
            duration_s=0.5,
            max_queue=3,
            backpressure=1,
            max_pending_per_session=1,
            deadline_s=0.01,
        )
        report = run_mini(profile)
        totals = report.metrics["totals"]
        assert totals["errors"] == 0
        assert totals["windows_shed"] > 0
        assert totals["windows_degraded"] > 0
        assert report.metrics["queue"]["depth_max"] <= profile.max_queue
        assert report.metrics["scheduler"]["shed"] == totals["windows_shed"]

    def test_closed_loop_self_limits(self):
        report = run_mini(
            mini_profile(arrival="closed", think_time_s=0.02, duration_s=0.6)
        )
        totals = report.metrics["totals"]
        assert totals["errors"] == 0 and totals["windows_shed"] == 0
        # Closed-loop arrivals wait for completions, so nobody queues
        # behind more than the fleet itself.
        assert report.metrics["queue"]["depth_max"] <= 3

    def test_functional_fidelity_runs(self):
        report = run_mini(
            mini_profile(num_sessions=1, duration_s=0.8), fidelity="functional"
        )
        totals = report.metrics["totals"]
        assert totals["errors"] == 0 and totals["windows_served"] > 0

    def test_report_render_mentions_key_numbers(self):
        report = run_mini(mini_profile(num_sessions=2))
        rendered = report.render()
        assert "p99" in rendered and "windows/s" in rendered
        assert "seed 7" in rendered

    def test_metrics_file_round_trips(self, tmp_path):
        report = run_mini(mini_profile(num_sessions=2))
        path = report.write_metrics(tmp_path / "SERVE_METRICS.json")
        assert json.loads(path.read_text()) == report.metrics


class TestServeTraces:
    """The virtual-time span trace: deterministic, schema-valid, and
    consistent with the telemetry counters."""

    def _run(self, **backend):
        profile = mini_profile()
        service = LocalizationService(profile, engine=Engine(use_disk=False), **backend)
        return service.run()

    def test_trace_byte_identical_across_runs(self):
        dumps = [self._run().trace.to_jsonl() for _ in range(2)]
        assert dumps[0] == dumps[1]

    def test_trace_byte_identical_across_worker_counts(self):
        one, three = (
            self._run(backend="process", workers=workers).trace.to_jsonl()
            for workers in (1, 3)
        )
        assert one == three

    def test_span_counts_match_telemetry(self):
        report = self._run()
        spans = report.trace.spans
        served = report.metrics["totals"]["windows_served"]
        names = [s.name for s in spans]
        assert names.count("service") == served
        assert names.count("queue_wait") == served
        assert names.count("batch") == report.metrics["batches"]["count"]
        reconfigs = sum(
            s["reconfigurations"] for s in report.metrics["sessions"]
        )
        assert names.count("reconfig") == reconfigs
        # All spans are virtual-timeline spans on track 0, category serve.
        assert all(s.track == 0 and s.category == "serve" for s in spans)

    def test_service_spans_sum_to_busy_time(self):
        report = self._run()
        service_total = sum(
            s.duration_s for s in report.trace.spans if s.name == "service"
        )
        busy = sum(i["busy_seconds"] for i in report.metrics["instances"])
        assert service_total == pytest.approx(busy)

    def test_chrome_export_is_schema_valid(self, tmp_path):
        from repro.obs import validate_chrome_trace

        report = self._run()
        path = report.write_chrome_trace(tmp_path / "trace.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_obs_metrics_export_matches_telemetry(self, tmp_path):
        report = self._run()
        path = report.write_obs_metrics(tmp_path / "OBS_METRICS.json")
        assert_obs_matches_metrics(json.loads(path.read_text()), report.metrics)
