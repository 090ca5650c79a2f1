"""Sequence serialization: save/load synthetic recordings as ``.npz``.

Lets expensive sequences be generated once and shared between
experiment runs or exported for external tools. Everything needed to
reproduce the run is stored — configuration, ground truth, observations,
IMU streams — in a single compressed archive. Format version 2 dropped
version 1's landmark field, which only synthesis reads
(:mod:`repro.data.sequences`); a version-1 archive is rejected, and
re-synthesizing from its configuration gives every other array
byte for byte.

The array-level codec (:func:`sequence_to_arrays` /
:func:`sequence_from_arrays`) is exposed separately from the file I/O so
other storage layers — notably the artifact cache of
:mod:`repro.engine` — can embed a sequence inside their own blobs
without a second format.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.data.sequences import ImuSegment, Sequence, SequenceConfig
from repro.data.tracks import FrameObservations, TrackerConfig
from repro.errors import DataError
from repro.geometry.camera import PinholeCamera
from repro.geometry.navstate import NavState
from repro.geometry.se3 import SE3
from repro.imu.noise import ImuNoise

_FORMAT_VERSION = 2


def sequence_to_arrays(sequence: Sequence) -> dict[str, np.ndarray]:
    """Encode a sequence as a flat ``{name: array}`` mapping."""
    config = sequence.config
    meta = {
        "version": _FORMAT_VERSION,
        "config": {
            **{
                k: v
                for k, v in asdict(config).items()
                if k not in ("camera", "imu_noise", "tracker")
            },
            "camera": asdict(config.camera),
            "imu_noise": asdict(config.imu_noise),
            "tracker": asdict(config.tracker),
        },
    }

    arrays: dict[str, np.ndarray] = {
        "timestamps": sequence.timestamps,
        "true_bias_gyro": sequence.true_bias_gyro,
        "true_bias_accel": sequence.true_bias_accel,
        "meta_json": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    }
    states = np.stack(
        [
            np.concatenate(
                [s.position, s.rotation.ravel(), s.velocity, s.bias_gyro, s.bias_accel]
            )
            for s in sequence.true_states
        ]
    )
    arrays["true_states"] = states
    for i, segment in enumerate(sequence.imu_segments):
        arrays[f"imu_{i}_t"] = segment.timestamps
        arrays[f"imu_{i}_g"] = segment.gyro
        arrays[f"imu_{i}_a"] = segment.accel
        arrays[f"imu_{i}_dt"] = np.array([segment.dt])
    for i, obs in enumerate(sequence.observations):
        arrays[f"obs_{i}_ids"] = obs.ids
        arrays[f"obs_{i}_px"] = obs.pixels
    return arrays


def sequence_from_arrays(data: Mapping[str, np.ndarray]) -> Sequence:
    """Decode a sequence from the mapping produced by
    :func:`sequence_to_arrays` (or an open ``.npz`` archive)."""
    meta = json.loads(bytes(np.asarray(data["meta_json"])).decode())
    if meta.get("version") != _FORMAT_VERSION:
        raise DataError(
            f"unsupported sequence format version {meta.get('version')!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    raw = dict(meta["config"])
    config = SequenceConfig(
        **{
            k: v
            for k, v in raw.items()
            if k not in ("camera", "imu_noise", "tracker")
        },
        camera=PinholeCamera(**raw["camera"]),
        imu_noise=ImuNoise(**raw["imu_noise"]),
        tracker=TrackerConfig(**raw["tracker"]),
    )
    timestamps = data["timestamps"]
    states = []
    for row in data["true_states"]:
        states.append(
            NavState(
                pose=SE3(row[3:12].reshape(3, 3), row[0:3]),
                velocity=row[12:15],
                bias_gyro=row[15:18],
                bias_accel=row[18:21],
            )
        )
    segments = []
    for i in range(len(timestamps) - 1):
        segments.append(
            ImuSegment(
                timestamps=data[f"imu_{i}_t"],
                gyro=data[f"imu_{i}_g"],
                accel=data[f"imu_{i}_a"],
                dt=float(data[f"imu_{i}_dt"][0]),
            )
        )
    observations = [
        FrameObservations(i, data[f"obs_{i}_ids"], data[f"obs_{i}_px"])
        for i in range(len(timestamps))
    ]
    return Sequence(
        config=config,
        timestamps=timestamps,
        true_states=states,
        observations=observations,
        imu_segments=segments,
        true_bias_gyro=data["true_bias_gyro"],
        true_bias_accel=data["true_bias_accel"],
    )


def save_sequence(sequence: Sequence, path: str | Path) -> Path:
    """Write a sequence to a compressed ``.npz`` archive."""
    path = Path(path)
    np.savez_compressed(path, **sequence_to_arrays(sequence))
    return path


def load_sequence(path: str | Path) -> Sequence:
    """Load a sequence written by :func:`save_sequence`."""
    path = Path(path)
    with np.load(path) as data:
        return sequence_from_arrays(data)
