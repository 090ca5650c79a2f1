"""Deadline-aware micro-batching scheduler with admission control.

The scheduler owns one bounded, fleet-wide queue of ready windows. Three
regimes, decided per submission from the instantaneous queue depth:

* depth < ``backpressure``      -> **ACCEPT** (full iteration count);
* ``backpressure`` <= depth < ``max_queue`` -> **DEGRADE** (the runtime
  controller drops ``degrade_drop`` NLS iterations — the Sec. 6 knob
  repurposed as a load-shedding dial: each degraded window costs fewer
  accelerator cycles, trading a little accuracy for queue drain);
* depth >= ``max_queue``        -> **SHED** (the window is never
  enqueued; the session dead-reckons through it).

Dispatch pops up to ``batch_size`` requests in earliest-deadline-first
order to form one micro-batch per free accelerator instance. Ordering is
total (deadline, then global submission sequence number), so scheduling
decisions are bit-deterministic.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

from repro.errors import ServeError
from repro.serve.session import WindowRequest


class Admission(enum.Enum):
    ACCEPT = "accept"
    DEGRADE = "degrade"
    SHED = "shed"


@dataclass
class Scheduler:
    """Bounded earliest-deadline-first queue over all sessions.

    ``accepted``/``degraded``/``shed`` partition the submissions: every
    window a session offers lands in exactly one bucket, and
    ``submitted`` is their sum (an invariant the serve tests pin).

    ``policy`` is the learned-admission seam: a frozen
    :class:`repro.runtime.policy.ControllerPolicy` whose admission head
    replaces the two fixed queue-depth thresholds inside the band
    ``[0, max_queue)``. The hard bound is not delegated — at
    ``depth >= max_queue`` the decision is SHED no matter what the
    policy says (the bound is what keeps overload memory-safe), and a
    learned SHED below ``backpressure`` is demoted to DEGRADE so a
    mis-extrapolated head cannot drop windows from a near-empty queue.
    ``policy=None`` keeps the fixed-regime path bit-identical.
    """

    max_queue: int = 64
    backpressure: int = 12
    batch_size: int = 4
    policy: object | None = None
    _heap: list[tuple[float, int, WindowRequest]] = field(default_factory=list)
    submitted: int = 0
    accepted: int = 0
    degraded: int = 0
    shed: int = 0

    def __post_init__(self) -> None:
        if self.max_queue < 1 or self.batch_size < 1:
            raise ServeError("max_queue and batch_size must be >= 1")
        if self.backpressure < 0:
            # A negative threshold would make depth >= backpressure true
            # forever: every submission silently lands in DEGRADE.
            raise ServeError("backpressure threshold must be >= 0")
        if self.backpressure > self.max_queue:
            raise ServeError("backpressure threshold must be <= max_queue")

    def __len__(self) -> int:
        return len(self._heap)

    def admit(self, *, headroom: float = 1.0, drift: float = 0.0) -> Admission:
        """Admission decision for the next submission at current depth.

        ``headroom`` (fraction of the deadline budget left at the recent
        service-time EWMA) and ``drift`` (the session's drift-estimate
        EWMA, meters) are the learned head's extra features; the fixed
        regimes ignore them.
        """
        depth = len(self._heap)
        if depth >= self.max_queue:
            return Admission.SHED
        if self.policy is None:
            if depth >= self.backpressure:
                return Admission.DEGRADE
            return Admission.ACCEPT
        action = self.policy.admission(
            depth / self.max_queue,
            self.backpressure / self.max_queue,
            headroom,
            drift,
        )
        if action == "shed" and depth < self.backpressure:
            action = "degrade"
        return Admission(action)

    def push(self, request: WindowRequest) -> None:
        if len(self._heap) >= self.max_queue:
            # admit() said SHED; pushing anyway is a caller bug, and the
            # bound is what keeps overload memory-safe.
            raise ServeError("scheduler queue overflow: admission control bypassed")
        heapq.heappush(self._heap, (request.deadline, request.seq, request))
        self.submitted += 1
        if request.degraded:
            self.degraded += 1
        else:
            self.accepted += 1

    def record_shed(self) -> None:
        self.submitted += 1
        self.shed += 1

    def next_batch(self) -> list[WindowRequest]:
        """Pop up to ``batch_size`` requests, earliest deadline first."""
        batch: list[WindowRequest] = []
        while self._heap and len(batch) < self.batch_size:
            _, _, request = heapq.heappop(self._heap)
            batch.append(request)
        return batch

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "degraded": self.degraded,
            "shed": self.shed,
            "max_queue": self.max_queue,
            "backpressure": self.backpressure,
            "batch_size": self.batch_size,
        }
