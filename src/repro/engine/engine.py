"""The execution engine: cached, parallel stage runs.

One :class:`Engine` owns three layers:

1. an in-process memo (always on — the successor of the old
   ``functools.lru_cache`` helpers, but shared by every consumer);
2. the content-addressed on-disk :class:`~repro.engine.cache.ArtifactCache`
   (on by default under ``.repro_cache/``; disable with
   ``use_disk=False`` / ``--no-cache``);
3. a thread-pool parallel runner for independent work items
   (``jobs`` > 1). Stages are deterministic functions of their config —
   seeds live inside the configs — so results are bit-identical at any
   worker count and with the cache on or off.

Computes are single-flight: concurrent requests for the same artifact
key block on one computation instead of duplicating it.

A module-level default engine serves library helpers
(:func:`get_engine`); the experiments CLI reconfigures it from
``--jobs`` / ``--cache-dir`` / ``--no-cache`` via :func:`configure`.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.engine.cache import ArtifactCache, CacheCounters, CacheStats
from repro.engine.keys import artifact_key
from repro.engine.stage import Stage
from repro.obs.tracer import Trace

logger = logging.getLogger("repro.engine")

DEFAULT_CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def _disk_cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set truthy — the environment
    analogue of ``--no-cache`` for entry points without CLI flags
    (examples, smoke tests)."""
    return os.environ.get("REPRO_NO_CACHE", "").lower() not in ("1", "true", "yes")


@dataclass(frozen=True)
class Artifact:
    """One stage product plus its provenance."""

    stage: str
    key: str
    payload: Any
    source: str  # "computed" | "memory" | "disk"
    seconds: float = 0.0


class Engine:
    """Runs stages through the memo/disk cache, optionally in parallel."""

    def __init__(
        self,
        cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
        use_disk: bool = True,
        jobs: int = 1,
        trace: Trace | None = None,
    ) -> None:
        self.cache = (
            ArtifactCache(cache_dir) if (use_disk and cache_dir is not None) else None
        )
        self.jobs = max(1, int(jobs))
        self.stats = CacheStats()
        # Optional repro.obs trace: every artifact fetch/compute becomes
        # a wall-clock span tagged with its cache provenance.
        self.trace = trace
        self._memory: dict[str, Any] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Single artifacts
    # ------------------------------------------------------------------

    def key_for(self, stage: Stage, config: Any) -> str:
        return artifact_key(stage.name, stage.version, config)

    def artifact(self, stage: Stage, config: Any) -> Artifact:
        """Fetch or compute one artifact, with provenance.

        With a trace attached, the whole fetch (cache probes included)
        is recorded as one span whose ``source`` attribute says whether
        the memo, the disk cache, or a fresh compute served it.
        """
        if self.trace is None:
            return self._artifact(stage, config)
        tic = time.perf_counter()
        artifact = self._artifact(stage, config)
        self.trace.add_span(
            stage.name,
            category="engine",
            start_s=tic,
            duration_s=time.perf_counter() - tic,
            source=artifact.source,
            key=artifact.key[:12],
        )
        return artifact

    def _artifact(self, stage: Stage, config: Any) -> Artifact:
        key = self.key_for(stage, config)
        payload = self._memory.get(key)
        if payload is not None:
            self.stats.record(stage.name, "memory_hits")
            return Artifact(stage.name, key, payload, "memory")
        with self._key_lock(key):
            payload = self._memory.get(key)
            if payload is not None:
                self.stats.record(stage.name, "memory_hits")
                return Artifact(stage.name, key, payload, "memory")
            if self.cache is not None:
                blob = self.cache.load(stage.name, stage.version, key)
                if blob is not None:
                    payload = stage.decode(*blob)
                    self._memory[key] = payload
                    self.stats.record(stage.name, "disk_hits")
                    logger.debug("disk hit %s %s", stage.name, key[:12])
                    return Artifact(stage.name, key, payload, "disk")
            started = time.perf_counter()
            payload = stage.compute(config, self)
            elapsed = time.perf_counter() - started
            self._memory[key] = payload
            self.stats.record(stage.name, "computed")
            logger.debug("computed %s %s in %.2fs", stage.name, key[:12], elapsed)
            if self.cache is not None:
                arrays, meta = stage.encode(payload)
                try:
                    self.cache.store(stage.name, stage.version, key, arrays, meta)
                    self.stats.record(stage.name, "stores")
                except OSError as error:
                    # A cache is never worth losing a finished computation
                    # over; an unwritable directory degrades to no-cache.
                    logger.warning(
                        "cache store failed for %s (%s); continuing uncached",
                        stage.name,
                        error,
                    )
            return Artifact(stage.name, key, payload, "computed", elapsed)

    def run(self, stage: Stage, config: Any) -> Any:
        """Fetch or compute one artifact and return its payload."""
        return self.artifact(stage, config).payload

    def memoized(self, key: str) -> bool:
        """Whether the in-process memo already holds artifact ``key``."""
        return key in self._memory

    # ------------------------------------------------------------------
    # Parallel runs
    # ------------------------------------------------------------------

    def map(self, stage: Stage, configs: list) -> list:
        """Run one stage over many configs, in order, possibly parallel."""
        return self.parallel(lambda config: self.run(stage, config), configs)

    def parallel(self, fn, items: list) -> list:
        """Apply ``fn`` over ``items`` on the engine's worker pool.

        Results come back in input order; with ``jobs == 1`` this is a
        plain loop, so single- and multi-worker runs traverse items in
        the same deterministic order of responsibility.
        """
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=min(self.jobs, len(items))) as pool:
            return list(pool.map(fn, items))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cache_counters(self) -> dict[str, int]:
        """Blob-level disk-cache counters (all zero when disk is off)."""
        if self.cache is None:
            return CacheCounters().as_dict()
        return self.cache.counters.as_dict()

    def stats_line(self) -> str:
        if self.cache is None:
            return f"[engine] cache: {self.stats.summary()} (disk: disabled)"
        return (
            f"[engine] cache: {self.stats.summary()} "
            f"(disk: {self.cache.cache_dir}; {self.cache.counters.summary()})"
        )

    def _key_lock(self, key: str) -> threading.Lock:
        with self._registry_lock:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock


_default_engine: Engine | None = None
_default_lock = threading.Lock()


def get_engine() -> Engine:
    """The process-wide default engine (created on first use)."""
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = Engine(use_disk=_disk_cache_enabled())
        return _default_engine


def configure(
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    use_disk: bool = True,
    jobs: int = 1,
    trace: Trace | None = None,
) -> Engine:
    """Replace the default engine (CLI flags, test fixtures)."""
    global _default_engine
    with _default_lock:
        _default_engine = Engine(
            cache_dir=cache_dir, use_disk=use_disk, jobs=jobs, trace=trace
        )
        return _default_engine
