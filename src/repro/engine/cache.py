"""The content-addressed on-disk artifact cache.

Layout (one blob per artifact, all self-describing):

    <cache_dir>/<stage-name>/<key>.npz

where ``key`` is the hex sha256 of (schema version, stage name, stage
code-version tag, canonical config token) — see
:mod:`repro.engine.keys`. Each blob holds the stage codec's arrays plus
an ``__engine_meta__`` JSON record (stage, version, key, codec meta).
A blob whose recorded stage version differs from the running code is
ignored (treated as a miss), which is how stage-logic changes invalidate
stale artifacts without any bookkeeping: bump the stage's ``version``
tag and old keys simply stop being produced while old blobs stop being
trusted.

Writes are atomic (temp file + ``os.replace``) so concurrent workers —
or a killed run — can never leave a half-written blob that a later
process would trust.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, DataError

_META_KEY = "__engine_meta__"


@dataclass
class CacheCounters:
    """Blob-level hit/miss accounting kept by :class:`ArtifactCache`.

    ``hits`` and ``misses`` count :meth:`ArtifactCache.load` outcomes;
    ``puts`` counts :meth:`ArtifactCache.store` calls;
    ``corrupt_blob_misses`` and ``stale_misses`` break the misses down
    by cause (an unreadable blob vs a stage-version mismatch — both are
    also counted in ``misses``). Increments are lock-protected so
    concurrent engine workers and serve sessions can share one cache.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt_blob_misses: int = 0
    stale_misses: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, *events: str) -> None:
        with self._lock:
            for event in events:
                setattr(self, event, getattr(self, event) + 1)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupt_blob_misses": self.corrupt_blob_misses,
                "stale_misses": self.stale_misses,
            }

    def summary(self) -> str:
        d = self.as_dict()
        return (
            f"{d['hits']} blob hits, {d['misses']} misses "
            f"({d['corrupt_blob_misses']} corrupt, {d['stale_misses']} stale), "
            f"{d['puts']} puts"
        )


@dataclass
class CacheStats:
    """Hit/miss counters, kept per engine and reported by the CLI.

    Increments are lock-protected, as in :class:`CacheCounters`, so
    threads that share one engine lose no counts.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    computed: int = 0
    stores: int = 0
    by_stage: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, stage: str, event: str) -> None:
        with self._lock:
            setattr(self, event, getattr(self, event) + 1)
            per_stage = self.by_stage.setdefault(
                stage, {"memory_hits": 0, "disk_hits": 0, "computed": 0, "stores": 0}
            )
            per_stage[event] += 1

    def summary(self) -> str:
        return (
            f"{self.memory_hits} memory hits, {self.disk_hits} disk hits, "
            f"{self.computed} computed"
        )


class ArtifactCache:
    """Load/store codec blobs under a cache directory."""

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.counters = CacheCounters()

    def path_for(self, stage_name: str, key: str) -> Path:
        return self.cache_dir / stage_name / f"{key}.npz"

    def load(self, stage_name: str, stage_version: str, key: str, decode):
        """Return ``decode(arrays, meta)``, or ``None`` on miss/stale/corrupt.

        A blob that parses but does not decode (an array missing, a
        field of the wrong shape, meta a codec rejects with a typed
        error) is a corrupt miss like a truncated one.
        """
        path = self.path_for(stage_name, key)
        if not path.exists():
            self.counters.record("misses")
            return None
        try:
            # np.load does not close a file it opened when the zip parse
            # fails, so the handle is ours to close.
            with open(path, "rb") as handle, np.load(handle) as data:
                engine_meta = json.loads(bytes(np.asarray(data[_META_KEY])).decode())
                if engine_meta.get("stage") != stage_name:
                    self.counters.record("misses")
                    return None
                if engine_meta.get("version") != stage_version:
                    # Stale: stage logic changed since this blob.
                    self.counters.record("misses", "stale_misses")
                    return None
                arrays = {k: data[k] for k in data.files if k != _META_KEY}
            payload = decode(arrays, engine_meta.get("codec_meta", {}))
            self.counters.record("hits")
            return payload
        except (
            OSError,
            ValueError,
            KeyError,
            IndexError,
            TypeError,
            ConfigurationError,
            DataError,
            EOFError,
            json.JSONDecodeError,
            zipfile.BadZipFile,
            zlib.error,
        ):
            # Unreadable/corrupt blob (truncated zip, flipped bytes,
            # bad JSON, a codec array missing, ...): recompute rather
            # than fail.
            self.counters.record("misses", "corrupt_blob_misses")
            return None

    def store(
        self,
        stage_name: str,
        stage_version: str,
        key: str,
        arrays: dict[str, np.ndarray],
        codec_meta: dict,
    ) -> Path:
        path = self.path_for(stage_name, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        engine_meta = {
            "stage": stage_name,
            "version": stage_version,
            "key": key,
            "codec_meta": codec_meta,
        }
        blob = dict(arrays)
        blob[_META_KEY] = np.frombuffer(
            json.dumps(engine_meta).encode(), dtype=np.uint8
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:12]}-", suffix=".npz.tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(handle, **blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.counters.record("puts")
        return path
