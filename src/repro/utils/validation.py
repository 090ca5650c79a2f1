"""Argument-validation helpers used across the library.

These raise :class:`repro.errors.ConfigurationError` (for scalar
parameters) or :class:`ValueError` (for array shape mismatches, which are
programming errors rather than configuration mistakes) with messages that
name the offending argument, so failures surface close to their cause.
"""

from __future__ import annotations

import difflib
from collections.abc import Mapping
from typing import TypeVar

import numpy as np

from repro.errors import ConfigurationError

_T = TypeVar("_T")


def lookup(what: str, name: str, registry: Mapping[str, _T], alternatives: str = "") -> _T:
    """Return ``registry[name]``, or raise naming the unknown ``what``.

    The error suggests up to three close names; when none is close it
    lists every name, followed by ``alternatives`` (e.g. ``" or a path"``).
    """
    if name in registry:
        return registry[name]
    close = difflib.get_close_matches(name, registry, n=3, cutoff=0.4)
    hint = (
        f"; did you mean {' or '.join(repr(c) for c in close)}?"
        if close
        else f"; choose from {sorted(registry)}{alternatives}"
    )
    raise ConfigurationError(f"unknown {what} {name!r}{hint}")


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number > 0, else raise."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ConfigurationError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_positive_int(name: str, value: int) -> int:
    """Return ``value`` if it is an integer >= 1, else raise."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_finite(name: str, array: np.ndarray) -> np.ndarray:
    """Return ``array`` if every element is finite, else raise."""
    array = np.asarray(array, dtype=float)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return array


def check_shape(name: str, array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Return ``array`` if it has exactly ``shape``, else raise."""
    array = np.asarray(array, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    return array


def check_square(name: str, array: np.ndarray) -> np.ndarray:
    """Return ``array`` if it is a square 2-D matrix, else raise."""
    array = np.asarray(array, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {array.shape}")
    return array


def check_symmetric(name: str, array: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Return ``array`` if it is symmetric to within ``tol``, else raise."""
    array = check_square(name, array)
    if not np.allclose(array, array.T, atol=tol, rtol=0.0):
        raise ValueError(f"{name} must be symmetric (tolerance {tol})")
    return array
