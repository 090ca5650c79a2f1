"""The benchmark's workloads, metrics and correctness checks.

Three workloads drive the program only through public entry points:

* ``serve-steady`` — ``LocalizationService`` on the ``steady`` profile
  shape, one shard, thread backend: open-loop Poisson arrivals under
  capacity, so host time is estimator numerics and set-up is sequence
  synthesis.
* ``serve-overload`` — ``run_fleet`` on the ``overload`` profile shape,
  two shards on the process backend with one worker each: burst
  arrivals past capacity, so every shard sheds and degrades and each
  window crosses a pipe.
* ``estimator-catalog`` — ``SlidingWindowEstimator.run`` over a drone and
  a car recording from the catalog, single-threaded, no serving tier.

A run repeats the workload (fresh in-memory ``Engine``, fresh solver-plan
cache, same seed) until its time is used, at least twice, and reports
medians. Host wall time and the modelled accelerator's virtual time are
separate metrics; virtual metrics and accuracy are deterministic for a
seed and must repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import repro.serve.fleet as fleet_module
import repro.slam.estimator as estimator_module
from repro.data.sequences import EUROC_SEQUENCES, KITTI_SEQUENCES
from repro.engine import SEQUENCE, Engine, named_design
from repro.hw.power import DEFAULT_POWER_MODEL
from repro.linalg.plan import default_plan_cache, reset_default_plan_cache
from repro.runtime.controller import RuntimeController
from repro.serve import LoadProfile, LocalizationService, resolve_profile, run_fleet
from repro.serve.accelerator import AcceleratorInstance, make_pool
from repro.serve.backend import ProcessBackend, ThreadBackend
from repro.serve.loadgen import open_loop_arrivals, session_sequence_config
from repro.serve.scheduler import Scheduler
from repro.serve.session import Session, SessionState
from repro.slam.estimator import EstimatorConfig, SlidingWindowEstimator
from repro.slam.nls import LMConfig

from tracing import Span, Target, Tracer, residual_fraction, self_times

# The default seed, and a seed kept out of tuning (seeds 1-10 were used)
# to confirm that the checks and figures hold on unseen inputs.
DEFAULT_SEED = 1
HELDOUT_SEED = 11

WORKLOADS = ("serve-steady", "serve-overload", "estimator-catalog")

# (name, unit): every end-to-end metric, reported by every workload. Host
# throughput and per-window host latency are not among them: on a shared
# host, speed swings between runs minutes apart spread them by 0.26-0.33
# of their median over ten seeds, past any bound the benchmark may set.
# Every run still prints them, and the traced run reports them below.
END_TO_END = (
    ("setup_s", "s"),
    ("virtual_latency_ms_p50", "virtual_ms"),
    ("virtual_latency_ms_p95", "virtual_ms"),
    ("virtual_slo_met_frac", "ratio"),
    ("virtual_energy_mj_per_window", "virtual_mJ"),
    ("drift_mm", "mm"),
    ("peak_rss_mb", "MiB"),
)

# (name, unit): every per-layer metric of the traced run, host figures of
# its untraced repeats first. A layer the workload never enters reads 0.
PER_LAYER = (
    ("throughput_wps", "windows/s"),
    ("window_ms_p50", "ms"),
    ("window_ms_p95", "ms"),
    ("engine.sequence.calls", "count"),
    ("engine.sequence.busy_s", "s"),
    ("engine.memo_hits", "count"),
    ("slam.step.calls", "count"),
    ("slam.step.busy_s", "s"),
    ("slam.lm.busy_s", "s"),
    ("slam.lm.iterations", "count"),
    ("slam.lm.accepted_frac", "ratio"),
    ("slam.lm.linearize_s", "s"),
    ("slam.lm.assemble_s", "s"),
    ("slam.lm.update_s", "s"),
    ("slam.marginalize.busy_s", "s"),
    ("slam.outside_lm_s", "s"),
    ("linalg.solve_s", "s"),
    ("linalg.schur_s", "s"),
    ("linalg.chol_s", "s"),
    ("linalg.backsub_s", "s"),
    ("linalg.plan_cache.hit_rate", "ratio"),
    ("linalg.plan_cache.plans", "count"),
    ("serve.loop_s", "s"),
    ("serve.loop_self_s", "s"),
    ("serve.scheduler.submitted", "count"),
    ("serve.scheduler.accepted", "count"),
    ("serve.scheduler.degraded", "count"),
    ("serve.scheduler.shed", "count"),
    ("serve.batch_occupancy_mean", "windows"),
    ("serve.virtual_queue_wait_ms_p50", "virtual_ms"),
    ("serve.backend.run_jobs.calls", "count"),
    ("serve.backend.run_jobs.busy_s", "s"),
    ("serve.backend.shed.calls", "count"),
    ("serve.backend.shed.busy_s", "s"),
    ("serve.fleet.merge_s", "s"),
    ("serve.fleet.shard_loop_s_max", "s"),
    ("serve.fleet.shard_imbalance", "ratio"),
    ("runtime.decide.calls", "count"),
    ("runtime.decide.busy_s", "s"),
    ("hw.charge.calls", "count"),
    ("hw.charge.busy_s", "s"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# Spans that only call into layers: they are not cover for the residual.
CONTAINERS = frozenset({"phase.serve", "phase.estimate", "phase.fleet", "serve.loop"})


# ----------------------------------------------------------------------
# Inputs: a seed becomes a LoadProfile or recording list, nothing else
# ----------------------------------------------------------------------


def steady_profile(seed: int, size: str) -> LoadProfile:
    """The ``steady`` shape: open-loop Poisson under capacity, 4 instances.

    Cut to 8 sessions (the five EuRoC recordings and three KITTI ones):
    the full catalog of 16 takes 23-26 s to synthesize, too long to set up
    twice in one run.
    """
    sessions, seconds = (8, 5.0) if size == "full" else (2, 1.0)
    return replace(
        resolve_profile("steady"),
        num_sessions=sessions,
        sequence_duration_s=seconds,
        seed=seed,
    )


def overload_profile(seed: int, size: str) -> LoadProfile:
    """The ``overload`` shape split over two shards.

    Each shard gets one instance and a third of the overload profile's
    sessions, so the per-session rate is quadrupled (960 offered windows/s
    per instance, over three times what one serves) and the queue bounds
    are scaled to the shard's session count: every shard sheds and
    degrades, and most served windows meet a full queue. Under a lighter
    overload the queue fills and drains with each burst, and the latency
    median moved by a quarter between seeds.
    """
    sessions, seconds = (8, 15.0) if size == "full" else (4, 1.0)
    return replace(
        resolve_profile("overload"),
        num_sessions=sessions,
        sequence_duration_s=seconds,
        rate_hz=240.0,
        max_queue=3,
        backpressure=2,
        seed=seed,
    )


OVERLOAD_SHARDS = 2
ESTIMATOR_RECORDINGS = (EUROC_SEQUENCES["MH_03"], KITTI_SEQUENCES["00"])


def estimator_inputs(seed: int, size: str):
    """Catalog recordings at a fixed length, plus the estimator config.

    The recordings are the catalog's own (fixed, like a dataset); the
    seed draws the estimator's bootstrap noise, the initializer error the
    estimator must recover from.
    """
    seconds = 25.0 if size == "full" else 1.0
    recordings = [replace(config, duration=seconds) for config in ESTIMATOR_RECORDINGS]
    config = EstimatorConfig(
        window_size=steady_profile(seed, size).window_size,
        lm=LMConfig(),
        seed=random.Random(f"layerbench:{seed}").getrandbits(31),
    )
    return recordings, config


# ----------------------------------------------------------------------
# Wrapped entry points
# ----------------------------------------------------------------------


def _step_request(self, sequence, frame_id, *args, **kwargs):
    return (sequence.config.name, frame_id)


def _step_attrs(args, kwargs, window):
    if window is None:
        return {"window": False}
    timings = window.timings
    return {
        "window": True,
        "linearize_s": timings.linearize_s,
        "assemble_s": timings.assemble_s,
        "solve_s": timings.solve_s,
        "update_s": timings.update_s,
        "schur_s": timings.schur_s,
        "chol_s": timings.chol_s,
        "backsub_s": timings.backsub_s,
    }


def _lm_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "accepted": result.accepted_steps}


def _engine_attrs(args, kwargs, result):
    engine, stage, config = args[:3]
    return {"stage": stage.name, "engine": id(engine), "key": engine.key_for(stage, config)}


def _jobs_attrs(args, kwargs, result):
    return {"jobs": len(args[1])}


def _execute_request(self, request):
    return (request.session_id, request.frame_id)


def _shed_request(self, session_id, frame_id):
    return (session_id, frame_id)


STEP_TARGET = Target(
    SlidingWindowEstimator,
    "step",
    "slam.step",
    request=_step_request,
    describe=_step_attrs,
)
# The thread backend runs a call's windows on pool threads, whose spans
# hang under the call; the process backend's windows run out of sight.
RUN_JOBS_TARGETS = (
    Target(ThreadBackend, "run_jobs", "serve.backend.run_jobs", describe=_jobs_attrs, adopts=True),
    Target(ProcessBackend, "run_jobs", "serve.backend.run_jobs", describe=_jobs_attrs),
)

LAYER_TARGETS = (
    Target(Engine, "run", "engine.run", describe=_engine_attrs),
    STEP_TARGET,
    Target(estimator_module, "levenberg_marquardt", "slam.lm", describe=_lm_attrs),
    Target(estimator_module, "marginalize_window", "slam.marginalize"),
    Target(Session, "execute", "serve.session.execute", request=_execute_request),
    *RUN_JOBS_TARGETS,
    Target(ThreadBackend, "shed", "serve.backend.shed", request=_shed_request),
    Target(ProcessBackend, "shed", "serve.backend.shed", request=_shed_request),
    Target(Scheduler, "admit", "serve.scheduler.admit"),
    Target(Scheduler, "next_batch", "serve.scheduler.next_batch"),
    Target(RuntimeController, "decide", "runtime.decide"),
    Target(AcceleratorInstance, "charge", "hw.charge"),
    Target(fleet_module, "merge_shard_metrics", "serve.fleet.merge"),
    Target(LocalizationService, "prepare", "serve.prepare"),
    Target(LocalizationService, "run", "serve.loop"),
)


# ----------------------------------------------------------------------
# One repeat of a workload
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """One repeat: host timings, deterministic outputs, and checks."""

    setup_s: float
    phase_s: float
    windows: int  # windows completed in the timed phase
    window_ms: list[float]  # host ms per window, one sample per window
    outputs: dict  # virtual metrics + accuracy (deterministic for a seed)
    digest: str  # identity of the program's outputs
    attempted: int  # windows offered to the program
    errors: int  # windows the program failed
    checks: list[tuple[str, bool]]
    serve_metrics: dict | None = None  # SERVE_METRICS.json content
    plan_cache: dict | None = None  # solver-plan cache stats after the repeat
    tracer: Tracer | None = None

    @property
    def throughput(self) -> float:
        return self.windows / self.phase_s


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _digest(payload) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def _run_jobs_samples(tracer: Tracer) -> list[float]:
    """Host ms per window: each backend call's wall time split over its
    windows, one sample per window it carried."""
    samples = []
    for span in tracer.by_name("serve.backend.run_jobs"):
        jobs = span.attrs["jobs"]
        samples.extend([span.duration * 1e3 / jobs] * jobs)
    return samples


def _expected_arrivals(profile: LoadProfile, session_ids) -> dict[int, int]:
    """Windows each session is offered: its seeded arrivals, capped by the
    recording's keyframes (frame 0 bootstraps, the rest are windows)."""
    expected = {}
    for sid in session_ids:
        config = session_sequence_config(profile, sid)
        windows = math.floor(config.duration * config.keyframe_rate)
        expected[sid] = len(open_loop_arrivals(profile, sid, windows))
    return expected


def _serve_checks(metrics: dict, profile: LoadProfile, shard_metrics: list[dict]):
    checks = []
    for shard in shard_metrics + ([metrics] if len(shard_metrics) > 1 else []):
        sched = shard["scheduler"]
        label = shard["shard"]["shard_id"] if "shard" in shard else "merged"
        checks.append(
            (
                f"accounting shard {label}: accepted+degraded+shed == submitted",
                sched["accepted"] + sched["degraded"] + sched["shed"] == sched["submitted"],
            )
        )
    sessions = {entry["session_id"]: entry for entry in metrics["sessions"]}
    expected = _expected_arrivals(profile, range(profile.num_sessions))
    left = [
        sid
        for sid, count in expected.items()
        if sid not in sessions
        or sessions[sid]["windows_served"] + sessions[sid]["windows_shed"] != count
    ]
    checks.append(
        (
            "no live state: every arrived window was served or shed",
            not left,
        )
    )
    checks.append(
        (
            "submitted == arrivals",
            metrics["scheduler"]["submitted"] == sum(expected.values()),
        )
    )
    return checks, sum(expected.values())


def _serve_outputs(metrics: dict, trace) -> dict:
    """Virtual-time metrics and accuracy of one serve run."""
    totals = metrics["totals"]
    sched = metrics["scheduler"]
    ready, done, waits = {}, {}, []
    for span in trace.spans:
        key = (span.attributes.get("session"), span.attributes.get("frame"))
        if span.name == "queue_wait":
            ready[key] = span.start_s
            waits.append(span.duration_s * 1e3)
        elif span.name == "service":
            done[key] = span.start_s + span.duration_s
    latency = [(done[key] - ready[key]) * 1e3 for key in done]
    served = totals["windows_served"]
    missed = totals["deadline_misses"] + sched["shed"] + totals["errors"]
    drift = sum(s["mean_drift_m"] * s["windows_served"] for s in metrics["sessions"])
    return {
        "virtual_latency_ms_p50": _percentile(latency, 50),
        "virtual_latency_ms_p95": _percentile(latency, 95),
        "virtual_latency_samples": len(latency),
        "virtual_slo_met_frac": (sched["submitted"] - missed) / sched["submitted"],
        "virtual_energy_mj_per_window": totals["energy_j"] * 1e3 / served,
        "drift_mm": drift * 1e3 / served,
        "virtual_queue_wait_ms_p50": _percentile(waits, 50),
    }


def _serve_pass(profile, metrics, trace, shards, setup, phase, tracer, checks=()) -> Pass:
    """A serve repeat's :class:`Pass`, from its metrics and virtual trace."""
    accounting, attempted = _serve_checks(metrics, profile, shards)
    return Pass(
        setup_s=setup,
        phase_s=phase,
        windows=metrics["totals"]["windows_served"],
        window_ms=_run_jobs_samples(tracer),
        outputs=_serve_outputs(metrics, trace),
        digest=_digest(json.dumps(metrics, sort_keys=True, indent=2) + "\n"),
        attempted=attempted,
        errors=metrics["totals"]["errors"],
        checks=accounting + list(checks),
        serve_metrics=metrics,
    )


def steady_pass(seed: int, size: str, tracer: Tracer) -> Pass:
    profile = steady_profile(seed, size)
    # Every repeat starts like a fresh process: no solver plans cached.
    reset_default_plan_cache()
    service = LocalizationService(
        profile,
        engine=Engine(use_disk=False),
        backend="thread",
        workers=min(profile.num_instances, len(os.sched_getaffinity(0))),
    )
    started = time.perf_counter()
    service.prepare()
    setup = time.perf_counter() - started
    with tracer.phase("phase.serve"):
        started = time.perf_counter()
        report = service.run()
        phase = time.perf_counter() - started
    live = [
        sid
        for sid, session in service.sessions.items()
        if session.state is SessionState.INFLIGHT or session.pending
    ]
    idle = ("no live state: sessions idle, queue empty", not live and len(service.scheduler) == 0)
    metrics = report.metrics
    return _serve_pass(profile, metrics, report.trace, [metrics], setup, phase, tracer, [idle])


def overload_pass(seed: int, size: str, tracer: Tracer) -> Pass:
    profile = overload_profile(seed, size)
    reset_default_plan_cache()
    with tracer.phase("phase.fleet"):
        started = time.perf_counter()
        report = run_fleet(profile, OVERLOAD_SHARDS, backend="process", workers=1)
        total = time.perf_counter() - started
    live = [r for r in report.shard_reports if r is not None]
    # Shards prepare one after another on the calling thread, then serve
    # side by side: set-up is the sum of their prepares.
    setup = sum(r.prepare_seconds for r in live)
    metrics = report.metrics
    return _serve_pass(
        profile, metrics, report.merged_trace(), metrics["shards"], setup, total - setup, tracer
    )


def estimator_pass(seed: int, size: str, tracer: Tracer) -> Pass:
    recordings, config = estimator_inputs(seed, size)
    reset_default_plan_cache()
    engine = Engine(use_disk=False)
    started = time.perf_counter()
    sequences = [engine.run(SEQUENCE, recording) for recording in recordings]
    setup = time.perf_counter() - started
    with tracer.phase("phase.estimate"):
        started = time.perf_counter()
        runs = [SlidingWindowEstimator(config).run(sequence) for sequence in sequences]
        phase = time.perf_counter() - started
    windows = [window for run in runs for window in run.windows]
    expected = sum(sequence.num_keyframes - 1 for sequence in sequences)

    # Price every window on one accelerator of the steady service's design
    # (Equ. 13-15): a dedicated instance, so latency is service time.
    profile = steady_profile(seed, size)
    design = named_design(profile.design, engine).config
    instance = make_pool(1, configs=[design])[0]
    power = DEFAULT_POWER_MODEL.power(design)
    charges = [instance.charge(w.stats, design, w.iterations, False) for w in windows]
    latency = [charge.total_s * 1e3 for charge in charges]
    drift = [w.newest_position_error for w in windows]
    outputs = {
        "virtual_latency_ms_p50": _percentile(latency, 50),
        "virtual_latency_ms_p95": _percentile(latency, 95),
        "virtual_latency_samples": len(latency),
        "virtual_slo_met_frac": statistics.fmean(c.total_s <= profile.deadline_s for c in charges),
        "virtual_energy_mj_per_window": (
            statistics.fmean(c.compute_s for c in charges) * power * 1e3
        ),
        "drift_mm": statistics.fmean(drift) * 1e3,
    }
    identity = [
        (w.frame_ids, w.iterations, w.accepted_steps, w.final_cost, w.newest_position_error)
        for w in windows
    ]
    steps = [s for s in tracer.by_name("slam.step") if s.attrs["window"]]
    return Pass(
        setup_s=setup,
        phase_s=phase,
        windows=len(windows),
        window_ms=[s.duration * 1e3 for s in steps],
        outputs=outputs,
        digest=_digest(json.dumps(identity)),
        attempted=expected,
        errors=expected - len(windows),
        checks=[
            ("every keyframe after the first produced a window", len(windows) == expected),
            ("drift finite", all(math.isfinite(d) for d in drift)),
        ],
    )


PASSES = {
    "serve-steady": (steady_pass, RUN_JOBS_TARGETS),
    "serve-overload": (overload_pass, RUN_JOBS_TARGETS),
    "estimator-catalog": (estimator_pass, (STEP_TARGET,)),
}


# ----------------------------------------------------------------------
# A whole run: repeats, medians, checks across repeats
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    attempted: int
    failed: int
    checks: list[tuple[str, bool]]
    lines: list[str]  # human-readable report
    tracer: Tracer | None = None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> RunResult:
    """Repeat ``workload`` for ``seconds`` (at least twice) and summarize.

    Untraced repeats wrap only the per-window boundary their host latency
    is read from. With ``trace``, repeats alternate untraced and fully
    traced, and the result carries per-layer metrics instead.
    """
    one_pass, probe = PASSES[workload]
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer(list(LAYER_TARGETS) if traced else list(probe))
        with tracer:
            result = one_pass(seed, size, tracer)
        if traced:
            result.tracer = tracer
            result.plan_cache = default_plan_cache().stats()
        passes.append(result)
        elapsed = time.perf_counter() - started
        if len(passes) >= 2 and elapsed * (1 + 1 / len(passes)) > seconds:
            break

    checks = [check for p in passes for check in p.checks]
    checks.append(
        (
            "outputs identical across repeats" + (" (traced and untraced)" if trace else ""),
            len({p.digest for p in passes}) == 1,
        )
    )
    checks.append(
        (
            "virtual metrics and drift identical across repeats",
            all(p.outputs == passes[0].outputs for p in passes),
        )
    )
    failed_checks = sum(not ok for _, ok in checks)
    attempted = sum(p.attempted for p in passes) + len(checks)
    failed = sum(p.errors for p in passes) + failed_checks

    plain = [p for p in passes if p.tracer is None]
    samples = [ms for p in plain for ms in p.window_ms]
    lines = [
        f"workload {workload}  seed {seed}  size {size}  repeats {len(passes)}"
        f" ({len(plain)} untraced)  windows/repeat {passes[0].windows}",
    ]
    lines += [
        f"repeat {i}{' traced' if p.tracer else ''}: setup {p.setup_s:.3f} s, "
        f"phase {p.phase_s:.3f} s, {p.throughput:.2f} windows/s"
        for i, p in enumerate(passes)
    ]
    lines += [f"check {'ok  ' if ok else 'FAIL'} {name}" for name, ok in checks]
    out = passes[0].outputs
    host = {
        "throughput_wps": statistics.median(p.throughput for p in plain),
        "window_ms_p50": _percentile(samples, 50),
        "window_ms_p95": _percentile(samples, 95),
    }
    lines.append(
        f"host, untraced: {host['throughput_wps']:.2f} windows/s, window ms "
        f"p50 {host['window_ms_p50']:.2f} p95 {host['window_ms_p95']:.2f} "
        f"({len(samples)} windows over {len(plain)} repeats)"
    )
    lines.append(f"virtual latency samples: {out['virtual_latency_samples']} windows")
    if trace:
        metrics = {**host, **layer_metrics(passes)}
        lines += layer_report(passes, metrics)
        tracer = next(p.tracer for p in passes if p.tracer is not None)
    else:
        metrics = {
            "setup_s": statistics.median(p.setup_s for p in plain),
            **{name: out[name] for name, _ in END_TO_END if name in out},
            "peak_rss_mb": peak_rss_mb(),
        }
        tracer = None
    units = dict(END_TO_END + PER_LAYER)
    return RunResult(
        metrics={name: (float(value), units[name]) for name, value in metrics.items()},
        attempted=attempted,
        failed=failed,
        checks=checks,
        lines=lines,
        tracer=tracer,
    )


# ----------------------------------------------------------------------
# Per-layer metrics of the traced repeat
# ----------------------------------------------------------------------


def _busy(spans: list[Span]) -> float:
    return sum(span.duration for span in spans)


def _phase_root(tracer: Tracer) -> Span:
    return next(s for s in tracer.spans if s.name.startswith("phase."))


def layer_metrics(passes: list[Pass]) -> dict[str, float]:
    traced = next(p for p in passes if p.tracer is not None)
    tracer = traced.tracer
    spans = tracer.spans
    named = {name: tracer.by_name(name) for name in {s.name for s in spans}}

    def get(name: str) -> list[Span]:
        return named.get(name, [])

    sequence_runs = [s for s in get("engine.run") if s.attrs["stage"] == SEQUENCE.name]
    distinct = {(s.attrs["engine"], s.attrs["key"]) for s in sequence_runs}
    windows = [s for s in get("slam.step") if s.attrs["window"]]
    lm = get("slam.lm")
    iterations = sum(s.attrs["iterations"] for s in lm)
    accepted = sum(s.attrs["accepted"] for s in lm)

    def stage(key: str) -> float:
        return sum(s.attrs[key] for s in windows)

    loops = get("serve.loop")
    backend_ids = {s.span_id for s in get("serve.backend.run_jobs") + get("serve.backend.shed")}
    loop_self = []
    for loop in loops:
        inside = sum(
            s.duration for s in spans if s.span_id in backend_ids and s.parent == loop.span_id
        )
        loop_self.append(loop.duration - inside)
    loop_times = [s.duration for s in loops]

    serve_metrics = traced.serve_metrics
    sched = serve_metrics["scheduler"] if serve_metrics else {}
    plan = traced.plan_cache
    plain = [p.throughput for p in passes if p.tracer is None]
    with_trace = [p.throughput for p in passes if p.tracer is not None]
    return {
        "engine.sequence.calls": len(sequence_runs),
        "engine.sequence.busy_s": _busy(sequence_runs),
        "engine.memo_hits": len(sequence_runs) - len(distinct),
        "slam.step.calls": len(get("slam.step")),
        "slam.step.busy_s": _busy(get("slam.step")),
        "slam.lm.busy_s": _busy(lm),
        "slam.lm.iterations": iterations,
        "slam.lm.accepted_frac": accepted / iterations if iterations else 0.0,
        "slam.lm.linearize_s": stage("linearize_s"),
        "slam.lm.assemble_s": stage("assemble_s"),
        "slam.lm.update_s": stage("update_s"),
        "slam.marginalize.busy_s": _busy(get("slam.marginalize")),
        "slam.outside_lm_s": _busy(get("slam.step")) - _busy(lm),
        "linalg.solve_s": stage("solve_s"),
        "linalg.schur_s": stage("schur_s"),
        "linalg.chol_s": stage("chol_s"),
        "linalg.backsub_s": stage("backsub_s"),
        "linalg.plan_cache.hit_rate": plan["hit_rate"],
        "linalg.plan_cache.plans": plan["plans"],
        "serve.loop_s": sum(loop_times),
        "serve.loop_self_s": sum(loop_self),
        "serve.scheduler.submitted": sched.get("submitted", 0),
        "serve.scheduler.accepted": sched.get("accepted", 0),
        "serve.scheduler.degraded": sched.get("degraded", 0),
        "serve.scheduler.shed": sched.get("shed", 0),
        "serve.batch_occupancy_mean": (
            serve_metrics["batches"]["mean_occupancy"] if serve_metrics else 0.0
        ),
        "serve.virtual_queue_wait_ms_p50": traced.outputs.get("virtual_queue_wait_ms_p50", 0.0),
        "serve.backend.run_jobs.calls": len(get("serve.backend.run_jobs")),
        "serve.backend.run_jobs.busy_s": _busy(get("serve.backend.run_jobs")),
        "serve.backend.shed.calls": len(get("serve.backend.shed")),
        "serve.backend.shed.busy_s": _busy(get("serve.backend.shed")),
        "serve.fleet.merge_s": _busy(get("serve.fleet.merge")),
        "serve.fleet.shard_loop_s_max": max(loop_times) if len(loops) > 1 else 0.0,
        "serve.fleet.shard_imbalance": (
            max(loop_times) / statistics.fmean(loop_times) if len(loops) > 1 else 0.0
        ),
        "runtime.decide.calls": len(get("runtime.decide")),
        "runtime.decide.busy_s": _busy(get("runtime.decide")),
        "hw.charge.calls": len(get("hw.charge")),
        "hw.charge.busy_s": _busy(get("hw.charge")),
        "trace.residual_frac": _residual(tracer),
        "trace.overhead_frac": 1.0 - statistics.median(with_trace) / statistics.median(plain),
    }


def _residual(tracer: Tracer) -> float:
    root = _phase_root(tracer)
    inside = [s for s in tracer.spans if s.start >= root.start and s.end <= root.end]
    return residual_fraction(root, inside, CONTAINERS, frozenset({"serve.prepare"}))


def layer_report(passes: list[Pass], metrics: dict[str, float]) -> list[str]:
    """Self time per span name, the residual, and the tracing overhead."""
    tracer = next(p.tracer for p in passes if p.tracer is not None)
    root = _phase_root(tracer)
    lines = [f"traced phase {root.name}: {root.duration:.3f} s wall"]
    lines.append(f"  {'span':32s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}")
    table = self_times(tracer.spans)
    for name in sorted(table, key=lambda n: -table[n][2]):
        calls, total, own = table[name]
        lines.append(f"  {name:32s} {calls:7d} {total:9.3f} {own:9.3f}")
    if metrics["serve.backend.run_jobs.calls"] and not metrics["slam.lm.iterations"]:
        lines.append(
            "window numerics ran in worker processes: run_jobs is one opaque layer "
            "here (serve-steady gives its in-worker split)"
        )
    lines.append(
        "residual (phase wall time no layer span covers): "
        f"{metrics['trace.residual_frac']:.2%}"
    )
    plain = statistics.median(p.throughput for p in passes if p.tracer is None)
    with_trace = statistics.median(p.throughput for p in passes if p.tracer is not None)
    lines.append(
        f"tracing overhead: {plain:.2f} windows/s untraced vs {with_trace:.2f} traced "
        f"({metrics['trace.overhead_frac']:+.1%})"
    )
    return lines
