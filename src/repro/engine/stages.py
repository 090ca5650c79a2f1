"""The typed stages of the reproduction pipeline.

Five stages cover everything the Sec. 7 harness recomputes by hand
today; every consumer (experiments, benchmarks, examples) goes through
them so repeated invocations — across processes — hit the artifact
cache instead of re-running the estimator:

* :class:`SequenceStage` — synthesize a sensor recording from its
  :class:`~repro.data.sequences.SequenceConfig`;
* :class:`EstimatorStage` — run the sliding-window estimator over a
  sequence (optionally with a declaratively-specified runtime policy);
* :class:`TraceStage` — replay an estimator run through the cycle-level
  accelerator co-simulation;
* :class:`SynthesisStage` — solve a :class:`~repro.synth.spec.DesignSpec`
  constrained optimization;
* :class:`ReplayStage` — replay a run's workload through the runtime
  controller for the Sec. 7.6 energy bookkeeping.

Runtime hooks cannot be content-addressed (they are callables), so the
estimator stage accepts a :class:`PolicySpec` naming the design whose
reconfiguration table drives the iteration policy; the stage
materializes the controller itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.data.io import sequence_from_arrays, sequence_to_arrays
from repro.data.sequences import (
    EUROC_SEQUENCES,
    KITTI_SEQUENCES,
    SequenceConfig,
    make_sequence,
)
from repro.engine import codecs
from repro.engine.keys import artifact_key
from repro.engine.stage import Stage
from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.hw.fpga import FpgaPlatform, ZC706
from repro.hw.sim.trace import simulate_windows
from repro.runtime.controller import RuntimeController, replay_windows
from repro.runtime.profiler import IterationTable
from repro.runtime.reconfig import ReconfigurationTable, build_reconfiguration_table
from repro.slam.estimator import EstimatorConfig, SlidingWindowEstimator
from repro.synth.spec import NAMED_DESIGN_SPECS, DesignSpec
from repro.synth.synthesizer import SynthesisResult, synthesize


# ----------------------------------------------------------------------
# Request dataclasses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolicySpec:
    """Declarative stand-in for ``EstimatorConfig.iteration_policy``.

    Names the Tbl. 2 design whose offline-built reconfiguration table
    (plus the default iteration lookup table and 2-bit counter) drives
    the per-window iteration cap. Being a plain frozen dataclass, it is
    content-addressable where the live controller callable is not.
    """

    design: str = "High-Perf"


@dataclass(frozen=True)
class EstimatorRequest:
    """One estimator run: which sequence, which estimator tuning.

    ``estimator`` must not carry live callables (``iteration_policy`` /
    ``window_probe``) — the key derivation rejects them; express runtime
    policies via ``policy`` instead.
    """

    sequence: SequenceConfig
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    policy: PolicySpec | None = None
    max_keyframes: int | None = None


@dataclass(frozen=True)
class TraceRequest:
    """Co-simulate an estimator run on a hardware design."""

    run: EstimatorRequest
    hardware: HardwareConfig
    platform: FpgaPlatform = ZC706
    seed: int = 0


@dataclass(frozen=True)
class ReplayRequest:
    """Replay a run's workload through the runtime controller."""

    run: EstimatorRequest
    design: str = "High-Perf"
    table: IterationTable = field(default_factory=IterationTable)


# ----------------------------------------------------------------------
# Named designs (Tbl. 2) and their reconfiguration tables
# ----------------------------------------------------------------------

_reconfig_lock = threading.Lock()
_reconfig_memo: dict[str, ReconfigurationTable] = {}


def named_design(name: str, engine=None) -> SynthesisResult:
    """Solve (or fetch) one of the named Tbl. 2 designs via the engine."""
    if name not in NAMED_DESIGN_SPECS:
        raise ConfigurationError(
            f"unknown design {name!r}; choose from {sorted(NAMED_DESIGN_SPECS)}"
        )
    if engine is None:
        from repro.engine.engine import get_engine

        engine = get_engine()
    return engine.run(SYNTHESIS, NAMED_DESIGN_SPECS[name])


def design_reconfiguration(name: str, engine=None) -> ReconfigurationTable:
    """The Equ. 18 reconfiguration table of a named design.

    The table holds live :class:`HardwareConfig` entries solved against
    the design's spec; building it is deterministic, so a process-local
    memo (keyed by the design's artifact key) is enough — the heavy
    upstream work (the synthesis solve) already flows through the cache.
    """
    design = named_design(name, engine)
    memo_key = artifact_key("reconfig-table", "1", NAMED_DESIGN_SPECS[name])
    with _reconfig_lock:
        table = _reconfig_memo.get(memo_key)
    if table is None:
        table = build_reconfiguration_table(design.config, design.spec)
        with _reconfig_lock:
            _reconfig_memo[memo_key] = table
    return table


def materialize_policy(spec: PolicySpec, engine=None):
    """Turn a :class:`PolicySpec` into a live iteration-policy callable."""
    reconfig = design_reconfiguration(spec.design, engine)
    controller = RuntimeController(table=IterationTable(), reconfig=reconfig)
    return controller.iteration_policy


# ----------------------------------------------------------------------
# Stage implementations
# ----------------------------------------------------------------------

class SequenceStage(Stage):
    name = "sequence"
    # v2: the payload drops the landmark field (repro.data.io format 2).
    version = "2"

    def compute(self, config: SequenceConfig, engine):
        del engine
        return make_sequence(config)

    def encode(self, payload):
        return sequence_to_arrays(payload), {}

    def decode(self, arrays, meta):
        del meta
        return sequence_from_arrays(arrays)


class EstimatorStage(Stage):
    name = "estimator-run"
    # v2: batched linearization backend (PR 2) — numerics differ from the
    # loop backend at rounding level and RunResult carries stage timings,
    # so loop-era artifacts must not be silently reused.
    # v3: SolverPlan solve path — jitter is now applied only on
    # factorization failure (was an unconditional 1e-9), shifting the
    # solve numerics at rounding level, and RunResult carries the
    # schur/chol/backsub timing split.
    # v4: marginalization assembles through build_linear_system (priors move).
    version = "4"

    def compute(self, config: EstimatorRequest, engine):
        sequence = engine.run(SEQUENCE, config.sequence)
        estimator_config = config.estimator
        if config.policy is not None:
            estimator_config = replace(
                estimator_config,
                iteration_policy=materialize_policy(config.policy, engine),
            )
        estimator = SlidingWindowEstimator(estimator_config)
        return estimator.run(sequence, max_keyframes=config.max_keyframes)

    def encode(self, payload):
        return codecs.encode_run_result(payload)

    def decode(self, arrays, meta):
        return codecs.decode_run_result(arrays, meta)


class TraceStage(Stage):
    name = "trace-cosim"
    # v2: consumes estimator-run v2 outputs (batched backend numerics).
    # v3: consumes estimator-run v3 outputs (SolverPlan solve numerics).
    # v4: consumes estimator-run v4 outputs (arrow-system marginalization).
    version = "4"

    def compute(self, config: TraceRequest, engine):
        run = engine.run(ESTIMATOR, config.run)
        return simulate_windows(
            [(w.stats, w.iterations) for w in run.windows],
            config.hardware,
            platform=config.platform,
            seed=config.seed,
        )

    def encode(self, payload):
        return codecs.encode_trace(payload)

    def decode(self, arrays, meta):
        return codecs.decode_trace(arrays, meta)


class SynthesisStage(Stage):
    name = "synthesis"
    version = "1"

    def compute(self, config: DesignSpec, engine):
        del engine
        return synthesize(config)

    def encode(self, payload):
        return codecs.encode_synthesis(payload)

    def decode(self, arrays, meta):
        return codecs.decode_synthesis(arrays, meta)


class PolicyStage(Stage):
    name = "runtime-policy"
    # v2: trained on replays with the arrow-system marginalization numerics.
    version = "2"

    def compute(self, config, engine):
        # Lazy: training replays serve profiles, and repro.serve imports
        # this module (same cycle-break as the portfolio solve).
        from repro.runtime.policy import train_controller_policy

        return train_controller_policy(config, engine)

    def encode(self, payload):
        return {}, payload.to_dict()

    def decode(self, arrays, meta):
        del arrays
        from repro.runtime.policy import ControllerPolicy

        return ControllerPolicy.from_dict(meta)


class ReplayStage(Stage):
    name = "runtime-replay"
    # v2: consumes estimator-run v2 outputs (batched backend numerics).
    # v3: consumes estimator-run v3 outputs (SolverPlan solve numerics).
    # v4: consumes estimator-run v4 outputs (arrow-system marginalization).
    version = "4"

    def compute(self, config: ReplayRequest, engine):
        run = engine.run(ESTIMATOR, config.run)
        reconfig = design_reconfiguration(config.design, engine)
        return replay_windows(
            [w.stats for w in run.windows], config.table, reconfig
        )

    def encode(self, payload):
        return codecs.encode_replay(payload)

    def decode(self, arrays, meta):
        return codecs.decode_replay(arrays, meta)


# Singleton stage instances (stages are stateless; share them).
SEQUENCE = SequenceStage()
ESTIMATOR = EstimatorStage()
TRACE = TraceStage()
SYNTHESIS = SynthesisStage()
REPLAY = ReplayStage()
POLICY = PolicyStage()


# ----------------------------------------------------------------------
# Catalog helpers
# ----------------------------------------------------------------------

def sequence_config(kind: str, name: str, duration: float) -> SequenceConfig:
    """Resolve a catalog sequence (EuRoC/KITTI-like) at a duration."""
    if kind == "euroc":
        catalog = EUROC_SEQUENCES
    elif kind == "kitti":
        catalog = KITTI_SEQUENCES
    else:
        raise ConfigurationError(f"unknown dataset kind {kind!r}")
    if name not in catalog:
        raise ConfigurationError(
            f"unknown {kind} sequence {name!r}; choose from {sorted(catalog)}"
        )
    return replace(catalog[name], duration=duration)
