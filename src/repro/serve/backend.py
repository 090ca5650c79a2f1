"""Execution backends: where a session step's numerics actually run.

The virtual-time event loop decides *when* everything happens; an
:class:`ExecutionBackend` decides *where* the NLS numerics run. Two
implementations share one seam:

* :class:`ThreadBackend` — in-process execution on the calling
  (event-loop) thread, each batch's windows in submission order. A
  thread pool would buy no parallelism under the GIL, only a malloc
  arena per pool thread, so there is none. This is the cheap,
  always-available **oracle**: every other backend must reproduce its
  per-shard ``SERVE_METRICS.json`` byte for byte.
* :class:`ProcessBackend` — persistent worker processes (``fork`` start
  method) with deterministic session affinity: session ``sid`` always
  executes on worker ``sid % workers``, and commands travel a FIFO pipe,
  so every session's estimator steps apply in exactly the event-loop
  order. This is what lets one shard — or a fleet of shards — use all
  host cores for real.

Ownership: sessions are built where they run. ``start`` takes one
:class:`~repro.serve.session.SessionSpec` per session (id, recording
config, window size) and the service's engine; ``collect_builds``
answers one :class:`~repro.serve.session.SessionBuild` per session
(feature counts, recording name, build seconds), from which the
service builds its event-loop views. Both backends build through
:func:`~repro.serve.session.build_sessions`. The thread backend builds
on the calling thread inside ``collect_builds`` and keeps the
estimators in-process; the process backend forks its workers in
``start``, and each worker synthesizes and bootstraps the sessions it
owns while the parent does its own set-up, so the serving parent never
holds a session's recording or estimator, not even during set-up. The
service lets go of its engine as ``prepare`` ends. A build that fails
comes back as a :class:`ServeError` naming the session and the cause,
and a worker that dies while building raises one that says so.
Respawning a dead worker means running the same build path for its
sessions again.

Determinism contract: batch composition, admission, and all virtual-time
accounting stay in the single-threaded event loop. A backend only
transports :class:`~repro.serve.session.WindowRequest` inputs and
returns :class:`~repro.serve.session.WindowOutcome` values, both plain
picklable value objects, so the metrics file is byte-identical across
backends and across worker counts.
"""

from __future__ import annotations

import multiprocessing

from repro.errors import ConfigurationError, ReproError, ServeError
from repro.serve.session import (
    SessionBuild,
    SessionEstimator,
    SessionSpec,
    WindowOutcome,
    WindowRequest,
    build_sessions,
)

BACKENDS = ("thread", "process")

# Worker protocol message kinds (parent -> worker).
_CMD_SHED, _CMD_RUN, _CMD_STOP = "shed", "run", "stop"


def execute_session_step(
    estimator: SessionEstimator, request: WindowRequest
) -> WindowOutcome:
    """Run one window optimization and reduce it to a picklable outcome.

    Typed solver errors become error outcomes (the serving tier treats
    them as per-window failures, not run failures); anything else is a
    genuine bug and propagates.
    """
    try:
        return WindowOutcome.from_result(request, estimator.execute(request))
    except ReproError as error:
        return WindowOutcome.from_error(request, error)


class ThreadBackend:
    """In-process execution on the calling thread — the conformance oracle."""

    name = "thread"

    def __init__(self) -> None:
        self._estimators: dict[int, SessionEstimator] = {}
        self._pending: tuple[list[SessionSpec], object] | None = None

    def start(self, specs: list[SessionSpec], engine) -> None:
        """Take the sessions' build specs; :meth:`collect_builds` builds
        them on the calling thread."""
        self._pending = (list(specs), engine)

    def collect_builds(self) -> list[SessionBuild]:
        """Build every session in spec order, then drop the engine."""
        specs, engine = self._pending
        self._pending = None
        self._estimators, builds = build_sessions(specs, engine)
        return builds

    def shed(self, session_id: int, frame_id: int) -> None:
        self._estimators[session_id].shed(frame_id)

    def run_jobs(self, jobs: list[WindowRequest]) -> list[WindowOutcome]:
        """Run the batch's windows one after another, in submission order."""
        return [
            execute_session_step(self._estimators[request.session_id], request)
            for request in jobs
        ]

    def stop(self) -> None:
        """Nothing to release: windows run on the caller's thread."""


def _worker_loop(conn, parent_ends, specs: list[SessionSpec], engine) -> None:
    """Body of one forked worker: builds the sessions it owns, then
    serves their steps until told to stop or until its parent goes away.

    The worker synthesizes and bootstraps its sessions through its
    fork-time copy of the service's engine and answers the build
    (``("built", [SessionBuild, ...])``, or ``("error", detail)`` naming
    the session and the cause, after which it exits), so the parent
    never holds the sessions' recordings. Its copies are the only ones.
    Commands arrive on a FIFO pipe and are served strictly in order —
    which is what makes per-session estimator steps apply in exactly
    the event-loop order. A command that raises is answered with the
    exception's type and message, so the parent's :class:`ServeError`
    names the cause.

    The fork also copies the parent's ends of this backend's pipes, and
    a copy held here would keep the worker's own pipe open forever; the
    worker closes them first. When the parent then closes its end
    without sending STOP (it dropped the backend, or it died), ``recv``
    raises ``EOFError``, or an answer finds the pipe broken, and the
    worker exits quietly. (Workers that another backend forks later in
    the same parent hold copies too; the EOF then waits for them to
    exit.)
    """
    for end in parent_ends:
        end.close()
    try:
        try:
            estimators, builds = build_sessions(specs, engine)
        except ServeError as error:
            conn.send(("error", str(error)))
            return
        conn.send(("built", builds))
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            kind = message[0]
            if kind == _CMD_STOP:
                break
            if kind == _CMD_SHED:
                _, session_id, frame_id = message
                try:
                    estimators[session_id].shed(frame_id)
                    conn.send(("ok", None))
                except Exception as error:  # noqa: BLE001 — crosses a process
                    conn.send(("error", f"{type(error).__name__}: {error}"))
            elif kind == _CMD_RUN:
                _, requests = message
                try:
                    outcomes = [
                        execute_session_step(estimators[request.session_id], request)
                        for request in requests
                    ]
                except Exception as error:  # noqa: BLE001 — crosses a process
                    conn.send(("error", f"{type(error).__name__}: {error}"))
                else:
                    conn.send(("results", outcomes))
            else:
                conn.send(("error", f"unknown command {kind!r}"))
    except BrokenPipeError:
        pass  # the parent closed its end before an answer: nothing to tell
    finally:
        conn.close()


class ProcessBackend:
    """Persistent ``fork`` worker processes with session affinity.

    Sessions are assigned ``sid -> worker[sid % workers]``; the mapping
    is a pure function of the session id, so it is identical across
    runs, across worker counts that divide the same way, and across the
    fleet/standalone split. Each worker builds the sessions it owns, so
    its estimators are the only ones: the parent must route every
    estimator-mutating step (execute *and* shed) through this backend.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("process backend needs >= 1 worker")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "the process backend needs the 'fork' start method "
                "(unavailable on this platform); use --backend thread"
            )
        self.workers = workers
        self._pipes = []
        self._procs = []
        self._owned: list[list[int]] = []

    def _worker_of(self, session_id: int) -> int:
        return session_id % self.workers

    def start(self, specs: list[SessionSpec], engine) -> None:
        """Fork the workers, each with the specs of the sessions it owns;
        they start building at once."""
        context = multiprocessing.get_context("fork")
        owned: list[list[SessionSpec]] = [[] for _ in range(self.workers)]
        for spec in sorted(specs, key=lambda spec: spec.session_id):
            owned[self._worker_of(spec.session_id)].append(spec)
        self._owned = [[spec.session_id for spec in mine] for mine in owned]
        for mine in owned:
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_worker_loop,
                args=(child_conn, [*self._pipes, parent_conn], mine, engine),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._procs.append(proc)

    def collect_builds(self) -> list[SessionBuild]:
        """Wait for every worker's build answer; session-id order."""
        builds = []
        for worker, owned in enumerate(self._owned):
            status, payload = self._recv(worker, f"while building sessions {owned}")
            if status != "built":
                raise ServeError(payload)
            builds.extend(payload)
        return sorted(builds, key=lambda build: build.session_id)

    def _recv(self, worker: int, during: str = "mid-run"):
        try:
            return self._pipes[worker].recv()
        except (EOFError, OSError) as error:
            raise ServeError(
                f"execution worker {worker} died {during}: {error!r}"
            ) from error

    def shed(self, session_id: int, frame_id: int) -> None:
        worker = self._worker_of(session_id)
        self._pipes[worker].send((_CMD_SHED, session_id, frame_id))
        status, detail = self._recv(worker)
        if status != "ok":
            raise ServeError(f"shed({session_id}, {frame_id}) failed: {detail}")

    def run_jobs(self, jobs: list[WindowRequest]) -> list[WindowOutcome]:
        by_worker: dict[int, list[WindowRequest]] = {}
        for request in jobs:
            by_worker.setdefault(self._worker_of(request.session_id), []).append(
                request
            )
        # Send every worker its slice first, then collect: workers run
        # their slices concurrently while the parent blocks on pipes.
        for worker, requests in by_worker.items():
            self._pipes[worker].send((_CMD_RUN, requests))
        outcome_by_seq: dict[int, WindowOutcome] = {}
        for worker in by_worker:
            status, payload = self._recv(worker)
            if status != "results":
                raise ServeError(f"worker {worker} run failed: {payload}")
            for outcome in payload:
                outcome_by_seq[outcome.seq] = outcome
        return [outcome_by_seq[request.seq] for request in jobs]

    def stop(self) -> None:
        for pipe in self._pipes:
            try:
                pipe.send((_CMD_STOP,))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
        for pipe in self._pipes:
            pipe.close()
        self._pipes, self._procs = [], []


def make_backend(name: str, workers: int):
    """Resolve a backend name to a fresh (not yet started) instance;
    ``workers`` sizes the process backend only."""
    if name == "thread":
        return ThreadBackend()
    if name == "process":
        return ProcessBackend(workers)
    raise ConfigurationError(f"backend must be one of {BACKENDS}, got {name!r}")
