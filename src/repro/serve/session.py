"""One robot's serving session, split where the process boundary falls.

The event loop's view, :class:`Session`, is a small state machine::

    WAITING --arrival--> READY --dispatch--> INFLIGHT --completion--> ...
       \\                   |                                        /
        \\                  +--(shed)--> WAITING <------------------+
         +--frames exhausted--> DRAINED

It holds only what admission, dispatch and telemetry read: the session
id, a per-session :class:`RuntimeController` (fresh 2-bit counter; the
iteration and reconfiguration tables are shared read-only across the
fleet — see the controller's concurrency contract), the recording's
name, its per-keyframe front-end feature counts, and the pending
backlog of arrived-but-not-yet-submitted windows. It holds no recording
and no estimator, so it can be built from counts alone.

The numerics live in a :class:`SessionEstimator`: the recording and
the :class:`SlidingWindowEstimator` bootstrapped on frame 0. Sessions
are built where they run: the service hands its execution backend
(:mod:`repro.serve.backend`) one :class:`SessionSpec` per session, and
the backend builds them through :func:`build_sessions` — on the calling
thread for the thread backend, inside the forked worker that owns the
session for the process backend — and answers a :class:`SessionBuild`
(feature counts and recording name) from which the service builds its
view. A process-backend parent therefore never holds a session's
recording, not even during set-up, and respawning a worker means
running the same build path again.

Thread-safety model: the event loop mutates a view only while its
session is *not* INFLIGHT; while INFLIGHT, exactly one backend (the
event-loop thread or one worker process) runs the estimator's
:meth:`SessionEstimator.execute`. Neither object
needs a lock — the scheduler's single-inflight-window-per-session rule
*is* the synchronization.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NoReturn

from repro.data.sequences import Sequence, SequenceConfig
from repro.data.stats import WindowStats
from repro.engine import SEQUENCE
from repro.errors import ServeError
from repro.hw.config import HardwareConfig
from repro.runtime.controller import RuntimeController
from repro.slam.estimator import (
    EstimatorConfig,
    RunResult,
    SlidingWindowEstimator,
    WindowResult,
)
from repro.slam.nls import LMConfig


class SessionState(enum.Enum):
    WAITING = "waiting"  # no window ready to submit
    READY = "ready"  # >= 1 pending window, none in flight
    INFLIGHT = "inflight"  # one window queued or executing
    DRAINED = "drained"  # recording exhausted


# Wire types are slots-only, not frozen: frozen+slots dataclasses can't
# be pickled on Python 3.10 (CPython gained the needed __getstate__ /
# __setstate__ pair only in 3.11), and picklability is load-bearing —
# the process execution backend ships these across worker pipes.
@dataclass(slots=True)
class WindowRequest:
    """One window's trip through the scheduler.

    ``seq`` is a per-shard monotone tiebreaker so heap ordering is total
    and deterministic. Requests are plain picklable value objects: the
    process execution backend ships them to worker processes verbatim.
    """

    session_id: int
    frame_id: int
    ready_time: float
    deadline: float
    iterations: int
    config: HardwareConfig
    reconfigured: bool
    degraded: bool
    seq: int


@dataclass(slots=True)
class WindowOutcome:
    """The picklable result of one session step crossing the worker seam.

    Both execution backends (in-process and worker processes)
    reduce a served window to this value object: the workload statistics
    the latency/energy models charge from, the drift number telemetry
    records, and — when the optimization failed with a typed error — the
    error's name and message instead of a live exception object.
    """

    session_id: int
    frame_id: int
    seq: int
    stats: WindowStats | None = None
    newest_position_error: float = 0.0
    error_type: str | None = None
    error_message: str | None = None

    @property
    def ok(self) -> bool:
        return self.error_type is None

    @classmethod
    def from_result(cls, request: WindowRequest, window) -> "WindowOutcome":
        return cls(
            session_id=request.session_id,
            frame_id=request.frame_id,
            seq=request.seq,
            stats=window.stats,
            newest_position_error=window.newest_position_error,
        )

    @classmethod
    def from_error(cls, request: WindowRequest, error: Exception) -> "WindowOutcome":
        return cls(
            session_id=request.session_id,
            frame_id=request.frame_id,
            seq=request.seq,
            error_type=type(error).__name__,
            error_message=str(error),
        )


@dataclass
class Session:
    """The event loop's view of one robot's session.

    ``feature_counts[f]`` is the front-end's tracked-feature count at
    keyframe ``f`` (the load signal the controller keys its iteration
    decision on); its length is the recording's keyframe count. Frame 0
    bootstraps the estimator, so the windows to serve are frames
    ``1 .. num_keyframes - 1``, in order.
    """

    session_id: int
    controller: RuntimeController
    feature_counts: tuple[int, ...]
    recording: str = ""

    def __post_init__(self) -> None:
        self.state = SessionState.WAITING
        self.next_frame = 1
        self.pending: deque[tuple[int, float]] = deque()  # (frame_id, ready_time)

    @property
    def num_keyframes(self) -> int:
        return len(self.feature_counts)

    @property
    def total_windows(self) -> int:
        return max(self.num_keyframes - 1, 0)

    @property
    def frames_remaining(self) -> bool:
        return self.next_frame < self.num_keyframes

    def on_arrival(self, t: float) -> bool:
        """The front-end produced the next keyframe at virtual time ``t``.

        Returns False when the recording is exhausted.
        """
        if not self.frames_remaining:
            return False
        self.pending.append((self.next_frame, t))
        self.next_frame += 1
        if self.state is SessionState.WAITING:
            self.state = SessionState.READY
        return True

    def front_end_feature_count(self, frame_id: int) -> int:
        """The sensing front-end's load signal for one keyframe — what
        the runtime controller keys its iteration decision on."""
        return self.feature_counts[frame_id]

    def take_pending(self) -> tuple[int, float]:
        """Pop the oldest pending window for submission/shedding."""
        if not self.pending:
            raise ServeError(f"session {self.session_id} has no pending window")
        frame_id, ready_time = self.pending.popleft()
        if not self.pending and self.state is SessionState.READY:
            self.state = SessionState.WAITING
        return frame_id, ready_time

    def mark_inflight(self) -> None:
        if self.state is SessionState.INFLIGHT:
            raise ServeError(
                f"session {self.session_id} already has a window in flight"
            )
        self.state = SessionState.INFLIGHT

    def on_complete(self) -> None:
        if self.state is not SessionState.INFLIGHT:
            raise ServeError(
                f"session {self.session_id} completed a window while {self.state}"
            )
        self.state = SessionState.READY if self.pending else SessionState.WAITING
        if not self.pending and not self.frames_remaining:
            self.state = SessionState.DRAINED

    def maybe_drain(self) -> None:
        """Mark DRAINED once nothing is pending and no frames remain."""
        if (
            self.state in (SessionState.WAITING, SessionState.READY)
            and not self.pending
            and not self.frames_remaining
        ):
            self.state = SessionState.DRAINED

    def execute(self, request: WindowRequest) -> NoReturn:
        """A view runs no numerics: the backend's :class:`SessionEstimator`
        executes every window. (layerbench wraps ``Session.execute`` by
        name, so the method stays, and says where the work went.)"""
        raise ServeError(
            f"session {self.session_id}: windows execute on the backend's "
            f"SessionEstimator, not on the event loop's view (frame "
            f"{request.frame_id})"
        )


@dataclass
class SessionEstimator:
    """One session's numerics: the recording and the estimator fed
    keyframe by keyframe.

    Construction bootstraps the estimator on frame 0 synchronously.
    :func:`build_sessions` constructs it wherever the session will run,
    and the execution backend alone keeps it. Each step records into a
    throwaway :class:`RunResult`: a served window's outcome reads only
    the returned :class:`WindowResult`, so a long-lived session keeps no
    per-window history.
    """

    session_id: int
    sequence: Sequence
    window_size: int = 6
    estimator: SlidingWindowEstimator = field(init=False)

    def __post_init__(self) -> None:
        self.estimator = SlidingWindowEstimator(
            EstimatorConfig(
                window_size=self.window_size, lm=LMConfig(), seed=self.session_id
            )
        )
        self.estimator.start()
        self.estimator.step(self.sequence, 0, RunResult())

    def shed(self, frame_id: int) -> None:
        """Admission control dropped this window: ingest the keyframe
        (dead-reckoning keeps the state chain consistent) but skip the
        accelerator's optimization entirely."""
        self.estimator.step(self.sequence, frame_id, RunResult(), skip_optimize=True)

    def execute(self, request: WindowRequest) -> WindowResult:
        """Run the window optimization the accelerator would perform."""
        window = self.estimator.step(
            self.sequence,
            request.frame_id,
            RunResult(),
            iteration_cap=request.iterations,
        )
        if window is None:
            raise ServeError(
                f"session {self.session_id} frame {request.frame_id} "
                "produced no window result"
            )
        return window


@dataclass(frozen=True)
class SessionSpec:
    """What a backend needs to build one session where it will run."""

    session_id: int
    sequence: SequenceConfig
    window_size: int


@dataclass(slots=True)
class SessionBuild:
    """A backend's answer for one built session.

    What the event loop's :class:`Session` view reads — the
    per-keyframe feature counts and the recording's name — plus the
    builder's wall seconds for synthesis and bootstrap.
    """

    session_id: int
    recording: str
    feature_counts: tuple[int, ...]
    seconds: float


def build_sessions(
    specs: list[SessionSpec], engine
) -> tuple[dict[int, SessionEstimator], list[SessionBuild]]:
    """Synthesize each spec's recording through ``engine`` and bootstrap
    its estimator, in spec order: the one build path of every backend.

    A failure is raised as a :class:`ServeError` that names the session
    and the cause, so it reads the same from a thread or across a
    worker's pipe.
    """
    estimators: dict[int, SessionEstimator] = {}
    builds = []
    for spec in specs:
        started = time.perf_counter()
        try:
            sequence = engine.run(SEQUENCE, spec.sequence)
            estimators[spec.session_id] = SessionEstimator(
                spec.session_id, sequence, spec.window_size
            )
        except Exception as error:  # noqa: BLE001 — named for the parent
            raise ServeError(
                f"building session {spec.session_id} failed: "
                f"{type(error).__name__}: {error}"
            ) from error
        builds.append(
            SessionBuild(
                session_id=spec.session_id,
                recording=sequence.config.name,
                feature_counts=tuple(
                    frame.num_features for frame in sequence.observations
                ),
                seconds=time.perf_counter() - started,
            )
        )
    return estimators, builds
