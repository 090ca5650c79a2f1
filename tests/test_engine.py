"""Tests for the execution engine: keys, cache correctness, single flight.

The contract under test is the one ``docs/engine.md`` documents:
identical bits whether an artifact is computed fresh, replayed from the
in-process memo, or decoded from a cold disk cache — and a new cache
key the moment any request field changes. The disk-cache tests persist
through ``HandBuiltPolicy`` or a short estimator run: the sequence and
synthesis stages are memo-only and never reach the disk.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.data import EUROC_SEQUENCES, KITTI_SEQUENCES
from repro.engine import (
    ESTIMATOR,
    POLICY,
    SEQUENCE,
    SYNTHESIS,
    Engine,
    EstimatorRequest,
    PolicySpec,
    PolicyStage,
    artifact_key,
    config_token,
    configure,
    sequence_config,
)
from repro.engine import engine as engine_module
from repro.errors import ConfigurationError
from repro.runtime.policy import PolicyTrainSpec
from repro.slam import EstimatorConfig
from repro.slam.nls import LMConfig
from tests.test_runtime_policy import tiny_policy


class HandBuiltPolicy(PolicyStage):
    """The ``POLICY`` stage with training replaced by a hand-built policy."""

    def compute(self, config, engine):
        del config, engine
        return tiny_policy()


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
        engine.run(HandBuiltPolicy(), PolicyTrainSpec(name="tiny"))
        assert engine.stats.computed == 1
        assert not cache_dir.exists()

    def test_memo_only_stages_leave_disk_empty(self, tmp_path):
        # A recording or a synthesis solve recomputes about as fast as a
        # blob of it would load, so neither stage has a codec.
        from repro.synth import NAMED_DESIGN_SPECS

        sequence = sequence_config("euroc", "MH_01", 2.0)
        spec = NAMED_DESIGN_SPECS["High-Perf"]
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(SEQUENCE, sequence)
        engine.run(SYNTHESIS, spec)
        assert list(tmp_path.iterdir()) == []
        assert all(value == 0 for value in engine.cache_counters().values())

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(SEQUENCE, sequence)
        fresh.run(SYNTHESIS, spec)
        assert fresh.stats.computed == 2 and fresh.stats.disk_hits == 0

    def test_changed_field_is_a_miss(self, tmp_path):
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(ESTIMATOR, short_request())
        engine.run(ESTIMATOR, short_request(huber_delta=2.0))
        estimator_stats = engine.stats.by_stage[ESTIMATOR.name]
        assert estimator_stats["computed"] == 2
        assert estimator_stats["memory_hits"] == 0
        assert estimator_stats["disk_hits"] == 0

    def test_stale_stage_version_is_a_miss(self, tmp_path):
        spec = PolicyTrainSpec(name="tiny")
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(HandBuiltPolicy(), spec)
        assert engine.stats.stores == 1

        class BumpedPolicy(HandBuiltPolicy):
            version = POLICY.version + "-bumped"

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(BumpedPolicy(), spec)
        assert fresh.stats.disk_hits == 0 and fresh.stats.computed == 1

    def test_corrupt_blob_is_a_miss(self, tmp_path):
        spec = PolicyTrainSpec(name="tiny")
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(HandBuiltPolicy(), spec)
        blob = engine.cache.path_for(POLICY.name, engine.key_for(POLICY, spec))
        blob.write_bytes(b"not an npz file")

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(HandBuiltPolicy(), spec)
        assert fresh.stats.computed == 1


class TestStageCodecs:
    """Each persisted stage's codec round-trips through a cold cache (the
    estimator run's in ``TestCacheCorrectness``)."""

    def test_policy_round_trip(self, tmp_path):
        # A hand-built policy stands in for training: the codec, not the
        # trainer, is under test.
        spec = PolicyTrainSpec(name="tiny")
        warm = Engine(cache_dir=tmp_path, use_disk=True)
        policy = warm.run(HandBuiltPolicy(), spec)
        cold = Engine(cache_dir=tmp_path, use_disk=True)
        decoded = cold.run(HandBuiltPolicy(), spec)
        assert cold.stats.by_stage[POLICY.name]["disk_hits"] == 1
        assert decoded.digest == policy.digest
        assert decoded.to_dict() == policy.to_dict()


class TestParallelRunner:
    def test_single_flight_same_key(self, tmp_path):
        # A caller's own threads may share one engine: the per-key lock
        # makes them wait on one compute and share its payload.
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        request = sequence_config("euroc", "MH_01", 2.0)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(engine.run, SEQUENCE, request) for _ in range(4)]
            results = [future.result() for future in futures]
        assert all(r is results[0] for r in results)
        assert engine.stats.computed == 1

    def test_threads_sharing_an_engine_lose_no_counts(self):
        # A GIL switch between the read and the write of an unlocked
        # counter increment drops counts; switching every microsecond
        # made 20,000 calls per thread lose some on every run.
        from repro.synth import DesignSpec

        calls = 20_000
        spec = DesignSpec()
        engine = Engine(use_disk=False)
        engine.run(SYNTHESIS, spec)

        def hammer(_):
            for _ in range(calls):
                engine.run(SYNTHESIS, spec)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(hammer, range(4), timeout=120))
        finally:
            sys.setswitchinterval(previous)
        assert engine.stats.memory_hits == 4 * calls
        assert engine.stats.by_stage[SYNTHESIS.name]["memory_hits"] == 4 * calls


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
        spec = PolicyTrainSpec(name="tiny")
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(HandBuiltPolicy(), spec)
        first = engine.cache_counters()
        assert first["misses"] == 1 and first["puts"] == 1 and first["hits"] == 0

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(HandBuiltPolicy(), spec)
        warm = fresh.cache_counters()
        assert warm["hits"] == 1 and warm["misses"] == 0 and warm["puts"] == 0

    def test_corrupt_blob_counted_separately(self, tmp_path):
        spec = PolicyTrainSpec(name="tiny")
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(HandBuiltPolicy(), spec)
        key = engine.key_for(POLICY, spec)
        engine.cache.path_for(POLICY.name, key).write_bytes(b"garbage")

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(HandBuiltPolicy(), spec)
        counters = fresh.cache_counters()
        assert counters["corrupt_blob_misses"] == 1
        assert counters["misses"] == 1  # the breakdown is also a miss
        assert counters["puts"] == 1  # the recomputed blob was re-stored

    def test_undecodable_blob_is_a_corrupt_miss(self, tmp_path):
        # The blob parses as an npz with valid engine meta, but the codec
        # cannot decode it: recompute and re-store instead of raising.
        request = short_request()
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        fresh_run = engine.run(ESTIMATOR, request)
        path = engine.cache.path_for(ESTIMATOR.name, engine.key_for(ESTIMATOR, request))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "final_cost"}
        assert "__engine_meta__" in arrays
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)

        cold = Engine(cache_dir=tmp_path, use_disk=True)
        run = cold.run(ESTIMATOR, request)
        counters = cold.cache_counters()
        assert counters["corrupt_blob_misses"] == 1
        assert counters["misses"] == 1 and counters["hits"] == 0
        assert counters["puts"] == 1
        assert cold.stats.by_stage[ESTIMATOR.name]["computed"] == 1
        assert [w.final_cost for w in run.windows] == [
            w.final_cost for w in fresh_run.windows
        ]

    def test_policy_edited_after_freezing_is_a_corrupt_miss(self, tmp_path):
        # The policy codec rejects meta whose digest no longer matches
        # with a typed error; the cache treats that as corruption too.
        spec = PolicyTrainSpec(name="tiny")
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        body = engine.run(HandBuiltPolicy(), spec).to_dict()
        body["energy_weight"] = 0.5
        engine.cache.store(
            POLICY.name, POLICY.version, engine.key_for(POLICY, spec), {}, body
        )

        cold = Engine(cache_dir=tmp_path, use_disk=True)
        policy = cold.run(HandBuiltPolicy(), spec)
        counters = cold.cache_counters()
        assert counters["corrupt_blob_misses"] == 1 and counters["puts"] == 1
        assert policy.digest == tiny_policy().digest

    def test_stale_version_counted_separately(self, tmp_path):
        # The stage version is baked into the artifact key, so a version
        # bump normally lands on a different path (a plain miss). The
        # stale counter guards the defence-in-depth check inside load():
        # a blob sitting at the right key whose recorded version
        # disagrees — rewrite one in place to exercise it.
        spec = PolicyTrainSpec(name="tiny")
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        arrays, meta = POLICY.encode(engine.run(HandBuiltPolicy(), spec))
        engine.cache.store(
            POLICY.name,
            POLICY.version + "-old",
            engine.key_for(POLICY, spec),
            arrays,
            meta,
        )

        fresh = Engine(cache_dir=tmp_path, use_disk=True)
        fresh.run(HandBuiltPolicy(), spec)
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
        engine = Engine(cache_dir=tmp_path, use_disk=True)
        engine.run(HandBuiltPolicy(), PolicyTrainSpec(name="tiny"))
        line = engine.stats_line()
        assert "0 blob hits, 1 misses" in line and "1 puts" in line
        assert Engine(use_disk=False).stats_line().endswith("(disk: disabled)")


def test_configure_honors_repro_no_cache(tmp_path, monkeypatch):
    # configure() replaces the process-wide engine; monkeypatch puts the
    # previous one back afterwards.
    monkeypatch.setattr(engine_module, "_default_engine", engine_module._default_engine)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    assert configure(cache_dir=tmp_path).cache is not None
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert configure(cache_dir=tmp_path).cache is None
