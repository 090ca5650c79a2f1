"""Tests for sequence serialization."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.data import make_euroc_sequence, make_kitti_sequence
from repro.data.io import (
    load_sequence,
    save_sequence,
    sequence_from_arrays,
    sequence_to_arrays,
)
from repro.data.tracks import FeatureTracker, TrackerConfig
from repro.errors import DataError


@pytest.fixture(
    scope="module", params=["euroc", "kitti"], ids=["euroc-MH_02", "kitti-00"]
)
def round_trip(request, tmp_path_factory):
    if request.param == "euroc":
        sequence = make_euroc_sequence("MH_02", duration=3.0)
    else:
        sequence = make_kitti_sequence("00", duration=3.0)
    path = tmp_path_factory.mktemp("seq") / f"{request.param}.npz"
    save_sequence(sequence, path)
    return sequence, load_sequence(path), path


class TestSerialization:
    def test_config_preserved(self, round_trip):
        original, loaded, _ = round_trip
        assert loaded.config == original.config

    def test_ground_truth_preserved(self, round_trip):
        original, loaded, _ = round_trip
        assert np.array_equal(loaded.timestamps, original.timestamps)
        for a, b in zip(original.true_states, loaded.true_states):
            assert np.allclose(a.position, b.position)
            assert np.allclose(a.rotation, b.rotation)
            assert np.allclose(a.velocity, b.velocity)

    def test_observations_preserved(self, round_trip):
        original, loaded, _ = round_trip
        for a, b in zip(original.observations, loaded.observations):
            assert a.ids.tobytes() == b.ids.tobytes()
            assert np.allclose(a.pixels, b.pixels)

    def test_imu_preserved(self, round_trip):
        original, loaded, _ = round_trip
        assert len(loaded.imu_segments) == len(original.imu_segments)
        for a, b in zip(original.imu_segments, loaded.imu_segments):
            assert np.allclose(a.gyro, b.gyro)
            assert np.allclose(a.accel, b.accel)
            assert a.dt == b.dt

    def test_estimator_runs_identically(self, round_trip):
        from repro.slam import EstimatorConfig, SlidingWindowEstimator

        original, loaded, _ = round_trip
        run_a = SlidingWindowEstimator(EstimatorConfig(window_size=6)).run(original)
        run_b = SlidingWindowEstimator(EstimatorConfig(window_size=6)).run(loaded)
        assert np.allclose(
            np.array(run_a.estimated_positions), np.array(run_b.estimated_positions)
        )

    def test_version_check(self, tmp_path):
        sequence = make_euroc_sequence("MH_01", duration=1.0)
        path = tmp_path / "seq.npz"
        save_sequence(sequence, path)
        # Corrupt the version field.
        import json

        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta_json"]).decode())
        meta["version"] = 999
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **arrays)
        with pytest.raises(DataError):
            load_sequence(path)

    def test_in_memory_arrays_round_trip(self):
        """The engine's sequence codec path: arrays without touching disk."""
        sequence = make_kitti_sequence("05", duration=2.0)
        arrays = sequence_to_arrays(sequence)
        assert all(isinstance(v, np.ndarray) for v in arrays.values())
        restored = sequence_from_arrays(arrays)
        assert restored.config == sequence.config
        assert np.array_equal(restored.timestamps, sequence.timestamps)

    def test_arrays_version_mismatch_rejected(self):
        import json

        sequence = make_euroc_sequence("MH_01", duration=1.0)
        arrays = dict(sequence_to_arrays(sequence))
        meta = json.loads(bytes(np.asarray(arrays["meta_json"])).decode())
        meta["version"] = 999
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        with pytest.raises(DataError):
            sequence_from_arrays(arrays)

    def test_format_1_archive_rejected(self, tmp_path):
        """Format 1 stored the landmark field, which format 2 dropped; a
        version-1 archive is refused by name, not decoded without it."""
        import json

        arrays = dict(sequence_to_arrays(make_euroc_sequence("MH_01", duration=1.0)))
        assert "landmarks" not in arrays
        meta = json.loads(bytes(np.asarray(arrays["meta_json"])).decode())
        meta["version"] = 1
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        arrays["landmarks"] = np.zeros((4, 3))
        path = tmp_path / "format1.npz"
        np.savez_compressed(path, **arrays)
        with np.load(path) as data:
            with pytest.raises(DataError, match=r"format version 1\b"):
                sequence_from_arrays(data)

    def test_empty_keyframe_round_trip(self, tmp_path):
        """A keyframe that sees no landmark encodes and decodes as the
        ``(0,)`` / ``(0, 2)`` pair the tracker hands out."""
        sequence = make_euroc_sequence("MH_01", duration=1.0)
        config = sequence.config
        empty = FeatureTracker(
            config.camera, np.empty((0, 3)), TrackerConfig(), np.random.default_rng(0)
        ).observe(2, sequence.true_states[2].pose)
        observations = list(sequence.observations)
        observations[2] = empty
        sequence = replace(sequence, observations=observations)
        path = tmp_path / "empty.npz"
        save_sequence(sequence, path)
        loaded = load_sequence(path)
        frame = loaded.observations[2]
        assert (frame.ids.shape, frame.ids.dtype) == ((0,), np.int64)
        assert (frame.pixels.shape, frame.pixels.dtype) == ((0, 2), np.float64)
        expected, actual = sequence_to_arrays(sequence), sequence_to_arrays(loaded)
        assert actual.keys() == expected.keys()
        for key, value in expected.items():
            assert actual[key].dtype == value.dtype, key
            assert actual[key].shape == value.shape, key
            assert actual[key].tobytes() == value.tobytes(), key


def test_observation_storage_per_observation(tmp_path):
    """A decoded recording holds its observations as two arrays per
    keyframe: 24 B of data per observation (an int64 id and two float64
    pixel coordinates) plus a few objects per keyframe. The bound fails a
    dict of per-observation pixel views, which costs about 180 B each."""
    path = tmp_path / "mh01.npz"
    save_sequence(make_euroc_sequence("MH_01", duration=15.0), path)
    gc.collect()
    tracemalloc.start()
    try:
        sequence = load_sequence(path)
        num_obs = int(sequence.feature_counts().sum())
        gc.collect()
        with_observations = tracemalloc.get_traced_memory()[0]
        sequence.observations = []
        gc.collect()
        without = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert num_obs > 5000
    assert (with_observations - without) / num_obs < 40.0
