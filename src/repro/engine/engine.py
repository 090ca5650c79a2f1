"""The execution engine: cached stage runs.

One :class:`Engine` owns two layers:

1. an in-process memo (always on — the successor of the old
   ``functools.lru_cache`` helpers, but shared by every consumer);
2. the content-addressed on-disk :class:`~repro.engine.cache.ArtifactCache`
   (on by default under ``.repro_cache/``; disable with
   ``use_disk=False`` / ``--no-cache``). Only a stage with a codec is
   persisted: the estimator run and the trained policy, whose compute
   dwarfs a blob load. A recording or a synthesis solve is recomputed
   about as fast as its blob would load, so those stages are memo-only.

Stages are deterministic functions of their config — seeds live inside
the configs — so results are bit-identical with the cache on or off.
Computes are single-flight: threads of one caller that request the
same artifact key block on one computation instead of duplicating it.

A module-level default engine serves library helpers
(:func:`get_engine`); the CLIs reconfigure it from ``--cache-dir`` /
``--no-cache`` via :func:`configure`. ``REPRO_NO_CACHE`` turns the disk
cache off in both.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from pathlib import Path
from typing import Any

from repro.engine.cache import ArtifactCache, CacheCounters, CacheStats
from repro.engine.keys import artifact_key
from repro.engine.stage import Stage

logger = logging.getLogger("repro.engine")

DEFAULT_CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def _disk_cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set truthy — the environment
    analogue of ``--no-cache``. Every entry point honors it: the
    flagless ones through :func:`get_engine`, the CLIs through
    :func:`configure`."""
    return os.environ.get("REPRO_NO_CACHE", "").lower() not in ("1", "true", "yes")


class Engine:
    """Runs stages through the memo/disk cache."""

    def __init__(
        self,
        cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
        use_disk: bool = True,
    ) -> None:
        self.cache = (
            ArtifactCache(cache_dir) if (use_disk and cache_dir is not None) else None
        )
        self.stats = CacheStats()
        self._memory: dict[str, Any] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()

    def key_for(self, stage: Stage, config: Any) -> str:
        return artifact_key(stage.name, stage.version, config)

    def run(self, stage: Stage, config: Any) -> Any:
        """Fetch or compute one artifact and return its payload."""
        key = self.key_for(stage, config)
        payload = self._memory.get(key)
        if payload is not None:
            self.stats.record(stage.name, "memory_hits")
            return payload
        with self._key_lock(key):
            payload = self._memory.get(key)
            if payload is not None:
                self.stats.record(stage.name, "memory_hits")
                return payload
            cache = self.cache if stage.encode is not None else None
            if cache is not None:
                payload = cache.load(stage.name, stage.version, key, stage.decode)
                if payload is not None:
                    self._memory[key] = payload
                    self.stats.record(stage.name, "disk_hits")
                    logger.debug("disk hit %s %s", stage.name, key[:12])
                    return payload
            started = time.perf_counter()
            payload = stage.compute(config, self)
            self._memory[key] = payload
            self.stats.record(stage.name, "computed")
            logger.debug(
                "computed %s %s in %.2fs",
                stage.name,
                key[:12],
                time.perf_counter() - started,
            )
            if cache is not None:
                arrays, meta = stage.encode(payload)
                try:
                    cache.store(stage.name, stage.version, key, arrays, meta)
                    self.stats.record(stage.name, "stores")
                except OSError as error:
                    # A cache is never worth losing a finished computation
                    # over; an unwritable directory degrades to no-cache.
                    logger.warning(
                        "cache store failed for %s (%s); continuing uncached",
                        stage.name,
                        error,
                    )
            return payload

    def memoized(self, key: str) -> bool:
        """Whether the in-process memo already holds artifact ``key``."""
        return key in self._memory

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
) -> Engine:
    """Replace the default engine (CLI flags, test fixtures).

    ``REPRO_NO_CACHE`` turns the disk cache off here as it does for
    :func:`get_engine`, whatever ``use_disk`` says.
    """
    global _default_engine
    with _default_lock:
        _default_engine = Engine(
            cache_dir=cache_dir, use_disk=use_disk and _disk_cache_enabled()
        )
        return _default_engine
