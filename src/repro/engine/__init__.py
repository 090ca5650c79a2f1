"""The artifact/stage execution engine.

Shared computations in the reproduction — sequence synthesis,
estimator runs, synthesis solves, controller-policy training — are
typed :class:`~repro.engine.stage.Stage` objects keyed by the content
of their configuration. The :class:`~repro.engine.engine.Engine`
memoizes stage products in process and persists the two expensive ones,
estimator runs and trained policies, in a content-addressed cache under
``.repro_cache/``. Cheap work derived from a cached estimator run (the
controller replay, the trace co-simulation) is not a stage. See
``docs/engine.md`` for the cache layout and invalidation rules.

Typical use::

    from repro.engine import ESTIMATOR, EstimatorRequest, get_engine
    from repro.engine.stages import sequence_config

    run = get_engine().run(
        ESTIMATOR, EstimatorRequest(sequence=sequence_config("euroc", "MH_01", 14.0))
    )
"""

from repro.engine.engine import (
    DEFAULT_CACHE_DIR,
    Engine,
    configure,
    get_engine,
)
from repro.engine.cache import ArtifactCache, CacheCounters, CacheStats
from repro.engine.keys import artifact_key, config_token
from repro.engine.stage import Stage
from repro.engine.stages import (
    ESTIMATOR,
    POLICY,
    SEQUENCE,
    SYNTHESIS,
    EstimatorRequest,
    PolicySpec,
    PolicyStage,
    SequenceStage,
    SynthesisStage,
    design_reconfiguration,
    named_design,
    sequence_config,
)

__all__ = [
    "ArtifactCache",
    "CacheCounters",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "Engine",
    "Stage",
    "artifact_key",
    "config_token",
    "configure",
    "get_engine",
    "SEQUENCE",
    "ESTIMATOR",
    "SYNTHESIS",
    "POLICY",
    "EstimatorRequest",
    "PolicySpec",
    "PolicyStage",
    "SequenceStage",
    "SynthesisStage",
    "design_reconfiguration",
    "named_design",
    "sequence_config",
]
