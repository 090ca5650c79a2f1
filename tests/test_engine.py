"""Tests for the execution engine: keys, cache correctness, parallelism.

The contract under test is the one ``docs/engine.md`` documents:
identical bits whether an artifact is computed fresh, replayed from the
in-process memo, or decoded from a cold disk cache — and a new cache
key the moment any request field changes.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.data import EUROC_SEQUENCES, KITTI_SEQUENCES
from repro.engine import (
    ESTIMATOR,
    REPLAY,
    SEQUENCE,
    SYNTHESIS,
    TRACE,
    Engine,
    EstimatorRequest,
    PolicySpec,
    ReplayRequest,
    TraceRequest,
    artifact_key,
    config_token,
    sequence_config,
)
from repro.errors import ConfigurationError
from repro.slam import EstimatorConfig
from repro.slam.nls import LMConfig


def short_request(duration=2.5, **estimator_fields):
    return EstimatorRequest(
        sequence=sequence_config("euroc", "MH_01", duration),
        estimator=EstimatorConfig(window_size=6, **estimator_fields),
    )


class TestKeys:
    def test_same_config_same_key(self):
        a = artifact_key("estimator-run", "1", short_request())
        b = artifact_key("estimator-run", "1", short_request())
        assert a == b

    def test_every_estimator_field_changes_key(self):
        base = short_request()
        variants = [
            replace(base, estimator=replace(base.estimator, window_size=7)),
            replace(base, estimator=replace(base.estimator, huber_delta=2.0)),
            replace(
                base,
                estimator=replace(base.estimator, lm=LMConfig(max_iterations=3)),
            ),
            replace(base, policy=PolicySpec(design="Low-Power")),
            replace(base, max_keyframes=10),
        ]
        keys = {artifact_key("estimator-run", "1", v) for v in variants}
        keys.add(artifact_key("estimator-run", "1", base))
        assert len(keys) == len(variants) + 1

    def test_every_sequence_field_changes_key(self):
        base = sequence_config("kitti", "00", 3.0)
        variants = [
            replace(base, duration=3.5),
            replace(base, seed=base.seed + 1),
            replace(base, keyframe_rate=base.keyframe_rate + 1.0),
        ]
        keys = {artifact_key("sequence", "1", v) for v in variants}
        keys.add(artifact_key("sequence", "1", base))
        assert len(keys) == len(variants) + 1

    def test_stage_name_and_version_in_key(self):
        config = short_request()
        assert artifact_key("a", "1", config) != artifact_key("b", "1", config)
        assert artifact_key("a", "1", config) != artifact_key("a", "2", config)

    def test_callable_rejected(self):
        with pytest.raises(ConfigurationError):
            config_token(EstimatorConfig(iteration_policy=lambda s, c: 3))

    def test_distinct_dataclass_types_distinct_tokens(self):
        # Same field values, different type — must not collide.
        euroc = EUROC_SEQUENCES["MH_01"]
        kitti = KITTI_SEQUENCES["00"]
        assert config_token(euroc) != config_token(kitti)

    def test_token_is_json_canonical(self):
        import json

        token = config_token(short_request())
        assert json.loads(json.dumps(token, sort_keys=True)) == token


class TestCacheCorrectness:
    def test_second_run_hits_disk_bit_identically(self, tmp_path):
        request = short_request()
        first = Engine(cache_dir=tmp_path, use_disk=True)
        run_a = first.run(ESTIMATOR, request)
        assert first.stats.computed >= 1 and first.stats.disk_hits == 0

        second = Engine(cache_dir=tmp_path, use_disk=True)
        run_b = second.run(ESTIMATOR, request)
        assert second.stats.disk_hits == 1 and second.stats.computed == 0

        assert np.array_equal(
            np.array(run_a.estimated_positions), np.array(run_b.estimated_positions)
        )
        for wa, wb in zip(run_a.windows, run_b.windows):
            assert wa.final_cost == wb.final_cost
            assert wa.newest_position_error == wb.newest_position_error
            assert wa.iterations == wb.iterations
            assert wa.stats == wb.stats

    def test_memory_hit_returns_same_object(self, tmp_path):
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        request = short_request()
        assert engine.run(ESTIMATOR, request) is engine.run(ESTIMATOR, request)
        assert engine.stats.memory_hits == 1

    def test_no_cache_leaves_disk_untouched(self, tmp_path):
        cache_dir = tmp_path / "never_created"
        engine = Engine(cache_dir=cache_dir, use_disk=False)
        engine.run(SEQUENCE, sequence_config("euroc", "MH_01", 2.0))
        assert not cache_dir.exists()

    def test_changed_field_is_a_miss(self, tmp_path):
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(ESTIMATOR, short_request())
        engine.run(ESTIMATOR, short_request(huber_delta=2.0))
        estimator_stats = engine.stats.by_stage[ESTIMATOR.name]
        assert estimator_stats["computed"] == 2
        assert estimator_stats["memory_hits"] == 0
        assert estimator_stats["disk_hits"] == 0

    def test_stale_stage_version_is_a_miss(self, tmp_path):
        request = sequence_config("euroc", "MH_01", 2.0)
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(SEQUENCE, request)

        class BumpedSequence(type(SEQUENCE)):
            version = SEQUENCE.version + "-bumped"

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(BumpedSequence(), request)
        assert fresh.stats.disk_hits == 0 and fresh.stats.computed == 1

    def test_corrupt_blob_is_a_miss(self, tmp_path):
        request = sequence_config("euroc", "MH_01", 2.0)
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        artifact = engine.artifact(SEQUENCE, request)
        blob = engine.cache.path_for(SEQUENCE.name, artifact.key)
        blob.write_bytes(b"not an npz file")

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(SEQUENCE, request)
        assert fresh.stats.computed == 1


class TestStageCodecs:
    """Each stage's encode/decode round-trips through a cold cache."""

    def test_trace_round_trip(self, tmp_path):
        from repro.hw import HardwareConfig

        request = TraceRequest(
            run=short_request(), hardware=HardwareConfig(nd=15, nm=12, s=40)
        )
        warm = Engine(cache_dir=tmp_path, use_disk=True)
        trace_a = warm.run(TRACE, request)
        cold = Engine(cache_dir=tmp_path, use_disk=True)
        trace_b = cold.run(TRACE, request)
        assert cold.stats.by_stage[TRACE.name]["disk_hits"] == 1
        assert trace_a.seconds == trace_b.seconds
        assert trace_a.energies_j == trace_b.energies_j
        assert trace_a.worst_case_seconds == trace_b.worst_case_seconds

    def test_synthesis_round_trip(self, tmp_path):
        from repro.engine.stages import NAMED_DESIGN_SPECS

        spec = NAMED_DESIGN_SPECS["High-Perf"]
        warm = Engine(cache_dir=tmp_path, use_disk=True)
        design_a = warm.run(SYNTHESIS, spec)
        cold = Engine(cache_dir=tmp_path, use_disk=True)
        design_b = cold.run(SYNTHESIS, spec)
        assert design_a.config == design_b.config
        assert design_a.latency_s == design_b.latency_s
        assert design_a.power_w == design_b.power_w
        assert design_a.utilization == design_b.utilization
        assert design_a.spec.platform.name == design_b.spec.platform.name

    def test_replay_round_trip(self, tmp_path):
        request = ReplayRequest(run=short_request(), design="Low-Power")
        warm = Engine(cache_dir=tmp_path, use_disk=True)
        replay_a = warm.run(REPLAY, request)
        cold = Engine(cache_dir=tmp_path, use_disk=True)
        replay_b = cold.run(REPLAY, request)
        assert replay_a.decisions == replay_b.decisions
        assert replay_a.total_energy_j == replay_b.total_energy_j
        assert replay_a.energy_saving == replay_b.energy_saving
        for iterations in (1, 3, 6):
            assert replay_a.gated_power(iterations) == replay_b.gated_power(iterations)


class TestParallelRunner:
    def test_map_matches_serial(self, tmp_path):
        configs = [
            sequence_config("euroc", "MH_01", 2.0),
            sequence_config("kitti", "00", 2.0),
        ]
        serial = Engine(cache_dir=tmp_path / "a", use_disk=False, jobs=1)
        threaded = Engine(cache_dir=tmp_path / "b", use_disk=False, jobs=2)
        runs_serial = serial.map(SEQUENCE, configs)
        runs_threaded = threaded.map(SEQUENCE, configs)
        for a, b in zip(runs_serial, runs_threaded):
            assert a.config == b.config
            assert np.array_equal(a.timestamps, b.timestamps)

    def test_single_flight_same_key(self, tmp_path):
        engine = Engine(cache_dir=tmp_path, use_disk=True, jobs=4)
        request = sequence_config("euroc", "MH_01", 2.0)
        results = engine.parallel(
            lambda _: engine.run(SEQUENCE, request), list(range(4))
        )
        assert all(r is results[0] for r in results)
        assert engine.stats.computed == 1

    def test_parallel_preserves_order(self, tmp_path):
        engine = Engine(cache_dir=tmp_path, use_disk=False, jobs=3)
        assert engine.parallel(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]


class TestRegistryIntegration:
    def test_unknown_experiment_suggests_close_match(self):
        from repro.experiments import run_experiment

        with pytest.raises(ConfigurationError, match="fig11"):
            run_experiment("fig_11")

    def test_run_experiments_rejects_unknown_upfront(self):
        from repro.experiments import run_experiments

        with pytest.raises(ConfigurationError):
            run_experiments(["fig13a", "nope"])

    def test_common_has_no_lru_cache(self):
        import repro.experiments.common as common

        assert "lru_cache" not in Path(common.__file__).read_text()

    def test_stats_line_mentions_cache(self, tmp_path):
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(SEQUENCE, sequence_config("euroc", "MH_01", 2.0))
        line = engine.stats_line()
        assert "1 computed" in line and str(tmp_path) in line


class TestCacheCounters:
    """Blob-level hit/miss accounting on the artifact cache."""

    def test_miss_put_then_hit(self, tmp_path):
        request = sequence_config("euroc", "MH_01", 2.0)
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(SEQUENCE, request)
        first = engine.cache_counters()
        assert first["misses"] == 1 and first["puts"] == 1 and first["hits"] == 0

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(SEQUENCE, request)
        warm = fresh.cache_counters()
        assert warm["hits"] == 1 and warm["misses"] == 0 and warm["puts"] == 0

    def test_corrupt_blob_counted_separately(self, tmp_path):
        request = sequence_config("euroc", "MH_01", 2.0)
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        artifact = engine.artifact(SEQUENCE, request)
        engine.cache.path_for(SEQUENCE.name, artifact.key).write_bytes(b"garbage")

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(SEQUENCE, request)
        counters = fresh.cache_counters()
        assert counters["corrupt_blob_misses"] == 1
        assert counters["misses"] == 1  # the breakdown is also a miss
        assert counters["puts"] == 1  # the recomputed blob was re-stored

    def test_stale_version_counted_separately(self, tmp_path):
        # The stage version is baked into the artifact key, so a version
        # bump normally lands on a different path (a plain miss). The
        # stale counter guards the defence-in-depth check inside load():
        # a blob sitting at the right key whose recorded version
        # disagrees — rewrite one in place to exercise it.
        request = sequence_config("euroc", "MH_01", 2.0)
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        artifact = engine.artifact(SEQUENCE, request)
        arrays, meta = SEQUENCE.encode(artifact.payload)
        engine.cache.store(
            SEQUENCE.name, SEQUENCE.version + "-old", artifact.key, arrays, meta
        )

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(SEQUENCE, request)
        counters = fresh.cache_counters()
        assert counters["stale_misses"] == 1 and counters["misses"] == 1

    def test_no_disk_engine_reports_zeros(self):
        counters = Engine(use_disk=False).cache_counters()
        assert set(counters) == {
            "hits",
            "misses",
            "puts",
            "corrupt_blob_misses",
            "stale_misses",
        }
        assert all(value == 0 for value in counters.values())

    def test_stats_line_surfaces_blob_counters(self, tmp_path):
        request = sequence_config("euroc", "MH_01", 2.0)
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(SEQUENCE, request)
        line = engine.stats_line()
        assert "blob hits" in line and "puts" in line
        assert Engine(use_disk=False).stats_line().endswith("(disk: disabled)")
