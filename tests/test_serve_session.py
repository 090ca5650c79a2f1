"""Generated event sequences over the event loop's session view, and
the bounded state of the session's numerics.

A :class:`~repro.serve.session.Session` holds no recording and no
estimator, so the state machine runs on counts alone. Its rules are the
calls the service's event loop makes: arrivals, take-then-shed (a
backlog trim or an admission shed), take-then-dispatch, completion, and
``maybe_drain``. Illegal transitions must raise :class:`ServeError` and
leave the session as it was.

A :class:`~repro.serve.session.SessionEstimator` lives as long as its
robot's session, so what it keeps must not grow with the windows served.
"""

import gc
import tracemalloc
from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.data.sequences import EUROC_SEQUENCES
from repro.engine import SEQUENCE, Engine
from repro.errors import ServeError
from repro.serve.session import (
    Session,
    SessionEstimator,
    SessionState,
    WindowRequest,
)


class SessionMachine(RuleBasedStateMachine):
    @initialize(counts=st.lists(st.integers(0, 300), max_size=8))
    def build(self, counts):
        # The state machine never reads the controller.
        self.session = Session(
            session_id=0, controller=None, feature_counts=tuple(counts)
        )
        self.counts = counts
        self.clock = 0.0
        self.arrived: list[int] = []
        self.taken: list[int] = []
        self.inflight = False

    def snapshot(self):
        session = self.session
        return session.state, session.next_frame, list(session.pending)

    def take(self) -> None:
        frame_id, ready_time = self.session.take_pending()
        assert frame_id == len(self.taken) + 1  # every frame once, in order
        assert ready_time <= self.clock
        self.taken.append(frame_id)
        assert self.session.front_end_feature_count(frame_id) == self.counts[frame_id]

    @rule(gap=st.floats(0.0, 1.0))
    def arrival(self, gap):
        self.clock += gap
        expected = self.session.frames_remaining
        assert self.session.on_arrival(self.clock) is expected
        if expected:
            self.arrived.append(self.session.pending[-1][0])
            assert self.arrived == list(range(1, len(self.arrived) + 1))

    @precondition(lambda self: self.session.state is SessionState.READY)
    @rule()
    def take_then_shed(self):
        self.take()

    @precondition(lambda self: self.session.state is SessionState.READY)
    @rule()
    def take_then_dispatch(self):
        self.take()
        self.session.mark_inflight()
        self.inflight = True

    @precondition(lambda self: self.session.state is SessionState.INFLIGHT)
    @rule()
    def complete(self):
        self.session.on_complete()
        self.inflight = False
        self.check_drained_after_settling()

    @rule()
    def maybe_drain(self):
        self.session.maybe_drain()
        self.check_drained_after_settling()

    def check_drained_after_settling(self):
        session = self.session
        idle = not session.pending and not session.frames_remaining
        assert (session.state is SessionState.DRAINED) == (idle and not self.inflight)

    @precondition(lambda self: not self.session.pending)
    @rule()
    def illegal_take(self):
        before = self.snapshot()
        try:
            self.session.take_pending()
        except ServeError:
            pass
        else:
            raise AssertionError("take_pending with no backlog did not raise")
        assert self.snapshot() == before

    @precondition(lambda self: self.session.state is SessionState.INFLIGHT)
    @rule()
    def illegal_second_dispatch(self):
        before = self.snapshot()
        try:
            self.session.mark_inflight()
        except ServeError:
            pass
        else:
            raise AssertionError("a second in-flight window did not raise")
        assert self.snapshot() == before

    @precondition(lambda self: self.session.state is not SessionState.INFLIGHT)
    @rule()
    def illegal_complete(self):
        before = self.snapshot()
        try:
            self.session.on_complete()
        except ServeError:
            pass
        else:
            raise AssertionError("completing with nothing in flight did not raise")
        assert self.snapshot() == before

    @invariant()
    def pending_ascends(self):
        pending = list(self.session.pending)
        frames = [frame for frame, _ in pending]
        times = [t for _, t in pending]
        assert frames == sorted(set(frames))
        assert times == sorted(times)
        # The backlog is exactly what arrived and was not taken yet.
        assert frames == self.arrived[len(self.taken):]

    @invariant()
    def state_matches_backlog(self):
        session = self.session
        assert (session.state is SessionState.INFLIGHT) == self.inflight
        if session.state is SessionState.DRAINED:
            assert not session.pending and not session.frames_remaining
        elif session.state is not SessionState.INFLIGHT:
            assert (session.state is SessionState.READY) == bool(session.pending)


SessionMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestSessionMachine = SessionMachine.TestCase


def test_session_estimator_state_is_bounded():
    """What a session retains after 200 windows is what it retained
    after 20: it keeps no record of the windows it served, and no record
    of a feature whose anchor frame has left the window."""
    recording = replace(EUROC_SEQUENCES["MH_03"], duration=40.2)
    sequence = Engine(use_disk=False).run(SEQUENCE, recording)
    assert sequence.num_keyframes > 200
    retained = {}
    tracemalloc.start()
    try:
        session = SessionEstimator(0, sequence, window_size=3)
        for frame_id in range(1, 201):
            session.execute(
                WindowRequest(
                    session_id=0, frame_id=frame_id, ready_time=0.0,
                    deadline=1.0, iterations=1, config=None,
                    reconfigured=False, degraded=False, seq=frame_id,
                )
            )
            if frame_id in (20, 200):
                gc.collect()
                retained[frame_id] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Less than 180 windows' worth of one window record (~350 B).
    assert retained[200] - retained[20] < 180 * 350
