"""Wall-clock spans recorded from outside the program.

A :class:`Tracer` temporarily replaces public functions and methods of the
program with timing wrappers, keeps every finished span in memory, and
puts the originals back when its ``with`` block ends. Nothing inside the
program changes: the wrappers call the original with the same arguments
and return its result untouched.

Spans nest per thread. A span that starts on a thread with no open span
takes the newest open *adopting* span as its parent: the thread
backend's window numerics hang under the ``run_jobs`` call that
dispatched them, and a fleet's shard loops under the harness phase that
started the fleet.

Calls made in a forked worker process are not recorded: the parent
cannot see them, and the benchmark reports such a call as one opaque
span on the parent side.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One finished call: ``name`` ran from ``start`` to ``end`` (seconds,
    ``time.perf_counter``) on ``thread``, inside span ``parent``."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    request: tuple | None = None  # (session, frame) where the call has one
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function or method to wrap: ``owner.attr`` becomes span ``name``.

    ``request`` maps the call's arguments to a request id; ``describe``
    maps ``(args, kwargs, result)`` to extra span attributes. ``adopts``
    makes the span the parent of spans that start on threads with no open
    span of their own.
    """

    owner: object
    attr: str
    name: str
    request: object = None
    describe: object = None
    adopts: bool = False


class Tracer:
    """Installs timing wrappers on entry and restores the originals on exit."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._adopters: list[int] = []
        self._pid = os.getpid()
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                original = vars(target.owner)[target.attr]
                setattr(target.owner, target.attr, self._wrap(original, target))
                self._originals.append((target.owner, target.attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, adopts: bool) -> tuple[int, int | None]:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            parent = self._adopters[-1] if self._adopters else None
        stack.append(span_id)
        if adopts:
            self._adopters.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, adopts: bool) -> None:
        self._stack().pop()
        if adopts:
            self._adopters.remove(span_id)

    def _wrap(self, original, target: Target):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            span_id, parent = tracer._open(target.adopts)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(span_id, target.adopts)
            tracer.spans.append(
                Span(
                    span_id=span_id,
                    name=target.name,
                    start=start,
                    end=end,
                    parent=parent,
                    thread=threading.get_ident(),
                    request=target.request(*args, **kwargs)
                    if target.request
                    else None,
                    attrs=target.describe(args, kwargs, result)
                    if target.describe
                    else {},
                )
            )
            return result

        traced.__wrapped__ = original
        return traced

    def phase(self, name: str):
        """Context manager recording a harness-level root span."""
        return _Phase(self, name)

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write_jsonl(self, path: Path, header: dict) -> Path:
        """Write ``header`` and then every span, one JSON object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
                handle.write(json.dumps(asdict(span), sort_keys=True, default=str) + "\n")
        return path


class _Phase:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.span_id, self.parent = self.tracer._open(adopts=True)
        self.start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.tracer._close(self.span_id, adopts=True)
        self.tracer.spans.append(
            Span(
                span_id=self.span_id,
                name=self.name,
                start=self.start,
                end=end,
                parent=self.parent,
                thread=threading.get_ident(),
            )
        )


# ----------------------------------------------------------------------
# Interval arithmetic over spans
# ----------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total, cursor = 0.0, lo
    for a, b in clipped:
        if b > cursor:
            total += b - max(a, cursor)
            cursor = b
    return total


def self_times(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: ``(calls, total seconds, self seconds)``.

    A span's self time is its duration minus the part of it that its
    child spans cover (children on other threads included, overlaps
    counted once).
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    table: dict[str, list] = {}
    for span in spans:
        kids = [(c.start, c.end) for c in children.get(span.span_id, [])]
        own = span.duration - covered(kids, span.start, span.end)
        row = table.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += own
    return {name: tuple(row) for name, row in table.items()}


def residual_fraction(
    root: Span, spans: list[Span], containers: frozenset[str], excluded: frozenset[str]
) -> float:
    """Share of ``root``'s wall time that no layer span covers.

    Spans named in ``containers`` (the root itself, the event loop that
    only calls into layers) do not count as cover. Time under spans named
    in ``excluded`` (set-up inside the phase) is removed from both sides.
    """
    layer = [
        (s.start, s.end)
        for s in spans
        if s.name not in containers and s.name not in excluded
    ]
    skipped = [(s.start, s.end) for s in spans if s.name in excluded]
    skipped_len = covered(skipped, root.start, root.end)
    phase = root.duration - skipped_len
    if phase <= 0:
        return 0.0
    cover = covered(layer + skipped, root.start, root.end) - skipped_len
    return max(0.0, phase - cover) / phase
