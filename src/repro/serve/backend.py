"""Execution backends: where a session step's numerics actually run.

The virtual-time event loop decides *when* everything happens; an
:class:`ExecutionBackend` decides *where* the NLS numerics run. Two
implementations share one seam:

* :class:`ThreadBackend` — the original in-process thread pool. Python's
  GIL serializes the NumPy-heavy solves onto roughly one core, which is
  exactly what makes it the cheap, always-available **oracle**: every
  other backend must reproduce its per-shard ``SERVE_METRICS.json``
  byte for byte.
* :class:`ProcessBackend` — persistent worker processes (``fork`` start
  method) with deterministic session affinity: session ``sid`` always
  executes on worker ``sid % workers``, and commands travel a FIFO pipe,
  so every session's estimator steps apply in exactly the event-loop
  order. This is what lets one shard — or a fleet of shards — use all
  host cores for real.

Ownership: the service builds each session in two parts — an
event-loop :class:`~repro.serve.session.Session` view it keeps, and a
:class:`~repro.serve.session.SessionEstimator` (recording, bootstrapped
estimator, run result) it passes to ``start`` and drops. The backend is
then the estimators' only owner. The thread backend keeps them
in-process; the process backend's workers inherit them at fork time,
and the parent keeps no reference (a started ``multiprocessing.Process``
drops its arguments). The service also lets go of its engine, and with
it the engine's memo of the recordings, as ``prepare`` ends, so the
serving parent holds only the views, controllers, and telemetry. The
flip side: the parent has no fork-time copy of a worker's sessions, so
respawning a dead worker means rebuilding its sessions, not re-forking
them.

Determinism contract: batch composition, admission, and all virtual-time
accounting stay in the single-threaded event loop. A backend only
transports :class:`~repro.serve.session.WindowRequest` inputs and
returns :class:`~repro.serve.session.WindowOutcome` values, both plain
picklable value objects, so the metrics file is byte-identical across
backends and across worker counts.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ConfigurationError, ReproError, ServeError
from repro.serve.session import SessionEstimator, WindowOutcome, WindowRequest

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
    """In-process execution on a thread pool — the conformance oracle."""

    name = "thread"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("thread backend needs >= 1 worker")
        self.workers = workers
        self._estimators: dict[int, SessionEstimator] = {}
        self._executor: ThreadPoolExecutor | None = None

    def start(self, estimators: dict[int, SessionEstimator]) -> None:
        self._estimators = estimators
        self._executor = ThreadPoolExecutor(max_workers=self.workers)

    def shed(self, session_id: int, frame_id: int) -> None:
        self._estimators[session_id].shed(frame_id)

    def run_jobs(self, jobs: list[WindowRequest]) -> list[WindowOutcome]:
        if self._executor is None:
            raise ServeError("backend used before start()")
        return list(
            self._executor.map(
                lambda request: execute_session_step(
                    self._estimators[request.session_id], request
                ),
                jobs,
            )
        )

    def stop(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def _worker_loop(
    conn, parent_ends, estimators: dict[int, SessionEstimator]
) -> None:
    """Body of one forked worker: owns a subset of session estimators
    until told to stop or until its parent goes away.

    The ``fork`` start method hands the built estimators over by memory
    inheritance (no pickling of estimator state); the parent keeps no
    reference, so the worker's copies are the only ones. Commands arrive
    on a FIFO pipe and are served strictly in order — which is what
    makes per-session estimator steps apply in exactly the event-loop
    order. A command that raises is answered with the exception's type
    and message, so the parent's :class:`ServeError` names the cause.

    The fork also copies the parent's ends of this backend's pipes, and
    a copy held here would keep the worker's own pipe open forever; the
    worker closes them first. When the parent then closes its end
    without sending STOP (it dropped the backend, or it died), ``recv``
    raises ``EOFError`` and the worker exits quietly. (Workers that
    another backend forks later in the same parent hold copies too; the
    EOF then waits for them to exit.)
    """
    for end in parent_ends:
        end.close()
    try:
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
    finally:
        conn.close()


class ProcessBackend:
    """Persistent ``fork`` worker processes with session affinity.

    Sessions are assigned ``sid -> worker[sid % workers]``; the mapping
    is a pure function of the session id, so it is identical across
    runs, across worker counts that divide the same way, and across the
    fleet/standalone split. After fork the *worker's* copy of a session
    estimator is the only one: the parent must route every
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

    def start(self, estimators: dict[int, SessionEstimator]) -> None:
        context = multiprocessing.get_context("fork")
        self._owned = [[] for _ in range(self.workers)]
        for sid in sorted(estimators):
            self._owned[self._worker_of(sid)].append(sid)
        for owned in self._owned:
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_worker_loop,
                args=(
                    child_conn,
                    [*self._pipes, parent_conn],
                    {sid: estimators[sid] for sid in owned},
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._procs.append(proc)

    def _recv(self, worker: int):
        try:
            return self._pipes[worker].recv()
        except (EOFError, OSError) as error:
            raise ServeError(
                f"execution worker {worker} died mid-run: {error}"
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
    """Resolve a backend name to a fresh (not yet started) instance."""
    if name == "thread":
        return ThreadBackend(workers)
    if name == "process":
        return ProcessBackend(workers)
    raise ConfigurationError(f"backend must be one of {BACKENDS}, got {name!r}")
