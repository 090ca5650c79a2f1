"""Generated event sequences over the serving tier's :class:`Scheduler`.

The rules are the calls the service's event loop makes: a submission
asks ``admit`` and then either pushes the window (accepted or degraded)
or records a shed, and a dispatch pops one ``next_batch``. A model queue
of ``(deadline, seq)`` keys runs alongside: every batch must be the
model's earliest keys, at most ``batch_size`` of them, and every pushed
request must come out exactly once. Pushing past ``max_queue`` must raise
:class:`ServeError` and change nothing.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import ServeError
from repro.serve.scheduler import Admission, Scheduler
from repro.serve.session import WindowRequest


def make_request(seq: int, deadline: float, degraded: bool) -> WindowRequest:
    return WindowRequest(
        session_id=seq % 3,
        frame_id=seq,
        ready_time=0.0,
        deadline=deadline,
        iterations=4,
        config=None,
        reconfigured=False,
        degraded=degraded,
        seq=seq,
    )


class SchedulerMachine(RuleBasedStateMachine):
    @initialize(
        bounds=st.integers(1, 8).flatmap(
            lambda max_queue: st.tuples(
                st.just(max_queue), st.integers(0, max_queue)
            )
        ),
        batch_size=st.integers(1, 5),
    )
    def build(self, bounds, batch_size):
        max_queue, backpressure = bounds
        self.scheduler = Scheduler(
            max_queue=max_queue, backpressure=backpressure, batch_size=batch_size
        )
        self.seq = 0
        self.queued: set[tuple[float, int]] = set()
        self.pushed: set[int] = set()
        self.popped: set[int] = set()
        self.counts = {"accepted": 0, "degraded": 0, "shed": 0}

    # Few distinct deadlines, so equal-deadline ties (broken by seq) recur.
    @rule(deadline=st.sampled_from([0.1, 0.2, 0.3, 0.4]))
    def submit(self, deadline):
        scheduler = self.scheduler
        depth = len(scheduler)
        admission = scheduler.admit()
        if depth >= scheduler.max_queue:
            assert admission is Admission.SHED
        elif depth >= scheduler.backpressure:
            assert admission is Admission.DEGRADE
        else:
            assert admission is Admission.ACCEPT
        if admission is Admission.SHED:
            scheduler.record_shed()
            self.counts["shed"] += 1
            return
        self.seq += 1
        degraded = admission is Admission.DEGRADE
        scheduler.push(make_request(self.seq, deadline, degraded))
        self.queued.add((deadline, self.seq))
        self.pushed.add(self.seq)
        self.counts["degraded" if degraded else "accepted"] += 1

    @precondition(lambda self: len(self.scheduler) >= self.scheduler.max_queue)
    @rule()
    def push_into_full_queue(self):
        before = (len(self.scheduler), self.scheduler.as_dict())
        try:
            self.scheduler.push(make_request(self.seq + 1, 0.0, False))
        except ServeError:
            pass
        else:
            raise AssertionError("a push past max_queue did not raise")
        assert (len(self.scheduler), self.scheduler.as_dict()) == before

    @rule()
    def next_batch(self):
        batch = self.scheduler.next_batch()
        keys = [(request.deadline, request.seq) for request in batch]
        expected = sorted(self.queued)[: self.scheduler.batch_size]
        assert keys == expected  # EDF, ties by seq, at most batch_size
        for _, seq in keys:
            assert seq not in self.popped  # popped exactly once
            self.popped.add(seq)
        self.queued.difference_update(keys)

    @invariant()
    def counters_partition_submissions(self):
        scheduler = self.scheduler
        assert (
            scheduler.accepted + scheduler.degraded + scheduler.shed
            == scheduler.submitted
        )
        assert (scheduler.accepted, scheduler.degraded, scheduler.shed) == (
            self.counts["accepted"],
            self.counts["degraded"],
            self.counts["shed"],
        )

    @invariant()
    def depth_is_bounded_and_modelled(self):
        assert len(self.scheduler) <= self.scheduler.max_queue
        assert len(self.scheduler) == len(self.queued)

    def teardown(self):
        # Draining the queue ends it empty, with every push popped once.
        while len(self.scheduler):
            self.next_batch()
        assert self.scheduler.next_batch() == []
        assert not self.queued
        assert self.popped == self.pushed


SchedulerMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestSchedulerMachine = SchedulerMachine.TestCase
