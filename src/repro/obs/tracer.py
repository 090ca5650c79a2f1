"""Structured tracing: spans over a wall or virtual clock.

A :class:`Span` is one named, categorized interval with attributes; a
:class:`Trace` is the thread-safe per-run recording the serving tier
appends to, each span through :meth:`Trace.add_span` with explicit
times. Two clock disciplines coexist:

* ``clock="wall"`` — ``time.perf_counter`` times; spans land on one
  track per recording thread. It is the default clock, including for a
  trace read back through :meth:`Trace.from_jsonl`.
* ``clock="virtual"`` — simulated times. The serving tier records its
  queue-wait / batch / service spans this way, so a seeded run exports a
  byte-identical trace no matter which backend, or how many workers,
  carried the numerics.

Exports: Chrome ``trace_event`` JSON (open in ``chrome://tracing`` or
Perfetto) and flat JSONL (one span per line, canonical key order —
diffable and byte-stable for virtual clocks). The module is
dependency-free by design: stdlib only.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

CLOCK_WALL = "wall"
CLOCK_VIRTUAL = "virtual"
CLOCKS = (CLOCK_WALL, CLOCK_VIRTUAL)

#: Keys every Chrome ``trace_event`` complete event must carry.
_CHROME_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")


@dataclass
class Span:
    """One recorded interval.

    Attributes:
        name: what ran (e.g. ``"queue_wait"``, ``"service"``).
        category: which layer recorded it (e.g. ``"serve"``).
        start_s: start time in the trace's clock (seconds).
        duration_s: extent in seconds.
        depth: nesting level (0 = top level).
        track: logical track (thread for wall clocks, 0 for virtual).
        attributes: small JSON-safe payload (cache source, session id…).
    """

    name: str
    category: str = "default"
    start_s: float = 0.0
    duration_s: float = 0.0
    depth: int = 0
    track: int = 0
    attributes: dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.category,
            "start_s": self.start_s,
            "dur_s": self.duration_s,
            "depth": self.depth,
            "track": self.track,
            "args": self.attributes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=str(data["name"]),
            category=str(data.get("cat", "default")),
            start_s=float(data["start_s"]),
            duration_s=float(data["dur_s"]),
            depth=int(data.get("depth", 0)),
            track=int(data.get("track", 0)),
            attributes=dict(data.get("args", {})),
        )


class Trace:
    """A thread-safe, append-only recording of spans for one run."""

    def __init__(self, clock: str = CLOCK_WALL, name: str = "trace") -> None:
        if clock not in CLOCKS:
            raise ValueError(f"clock must be one of {CLOCKS}, got {clock!r}")
        self.clock = clock
        self.name = name
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._tracks: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _track_id(self) -> int:
        if self.clock == CLOCK_VIRTUAL:
            return 0  # virtual spans come from one logical timeline
        ident = threading.get_ident()
        track = self._tracks.get(ident)
        if track is None:
            track = self._tracks[ident] = len(self._tracks)
        return track

    def add_span(
        self,
        name: str,
        category: str = "default",
        start_s: float = 0.0,
        duration_s: float = 0.0,
        depth: int = 0,
        **attributes,
    ) -> Span:
        """Record a span with explicit times in the trace's clock."""
        record = Span(
            name=name,
            category=category,
            start_s=start_s,
            duration_s=duration_s,
            depth=depth,
            attributes=dict(attributes),
        )
        with self._lock:
            record.track = self._track_id()
            self.spans.append(record)
        return record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_chrome(self) -> dict:
        """The Chrome ``trace_event`` representation (complete events)."""
        base = min((s.start_s for s in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": (span.start_s - base) * 1e6,  # microseconds
                "dur": span.duration_s * 1e6,
                "pid": 1,
                "tid": span.track,
                "args": span.attributes,
            }
            for span in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_name": self.name, "clock": self.clock},
        }

    def to_jsonl(self) -> str:
        """Flat JSONL: one canonical-JSON span per line."""
        return "".join(
            json.dumps(span.as_dict(), sort_keys=True) + "\n" for span in self.spans
        )

    def export_chrome(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(), sort_keys=True, indent=2) + "\n")
        return path

    def export_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path

    @classmethod
    def from_jsonl(cls, path: str | Path, clock: str = CLOCK_WALL) -> "Trace":
        trace = cls(clock=clock, name=Path(path).stem)
        for line in Path(path).read_text().splitlines():
            if line.strip():
                trace.spans.append(Span.from_dict(json.loads(line)))
        return trace


def validate_chrome_trace(data: object) -> list[str]:
    """Check a loaded JSON object against the Chrome ``trace_event``
    schema (JSON-object form, complete events). Returns a list of
    problems — empty means valid."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"top level must be an object, got {type(data).__name__}"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array 'traceEvents'"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in _CHROME_EVENT_KEYS:
            if key not in event:
                problems.append(f"event {i}: missing key {key!r}")
        if event.get("ph") not in ("X", "B", "E", "i", "C", "M"):
            problems.append(f"event {i}: unknown phase {event.get('ph')!r}")
        for key in ("ts", "dur"):
            value = event.get(key)
            if value is not None and (
                not isinstance(value, (int, float)) or value < 0
            ):
                problems.append(f"event {i}: {key} must be a non-negative number")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"event {i}: 'args' must be an object")
    return problems


def spans_by(spans: Iterable[Span], category: str) -> list[Span]:
    """The subset of ``spans`` recorded under one category."""
    return [span for span in spans if span.category == category]
