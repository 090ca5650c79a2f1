"""The Stage abstraction: a named, versioned, cacheable computation.

A stage maps a frozen configuration dataclass to a payload. The engine
(:mod:`repro.engine.engine`) addresses the result by the content key of
``(stage.name, stage.version, config)`` and memoizes it in process. A
stage with codec hooks is also persisted to the disk cache; one without
them is memo-only. ``version`` is the stage's *code-version tag*: bump
it whenever the stage's computation changes meaning, and every
previously cached artifact of that stage is invalidated at once.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np


class Stage:
    """Base class for typed pipeline stages."""

    #: Unique stage name; also the cache subdirectory.
    name: str = "stage"
    #: Code-version tag; part of every artifact key and blob.
    version: str = "1"
    #: Codec for the disk cache: payload -> (arrays, json-safe meta), and
    #: its inverse, which must be bit-exact for numerics. A stage defines
    #: both or neither; without them the engine never touches the disk.
    encode: Callable[[Any], tuple[dict[str, np.ndarray], dict]] | None = None
    decode: Callable[[dict[str, np.ndarray], dict], Any] | None = None

    def compute(self, config: Any, engine) -> Any:
        """Produce the payload for ``config``.

        ``engine`` is passed so a stage can pull its upstream artifacts
        through the same cache (e.g. the estimator stage pulling the
        recording it runs over).
        """
        raise NotImplementedError
