"""Shared benchmark helpers.

Every benchmark regenerates one of the paper's tables/figures via the
experiment registry, times it once (these are experiments, not
micro-kernels), prints the regenerated rows, and asserts the shape
properties the paper's artifact exhibits.

The session configures the execution engine with a per-session artifact
cache: experiments that share upstream work (estimator runs, synthesis
solves) compute it once, while timings across sessions stay honest
because the cache starts empty.
"""

from __future__ import annotations

import pytest

from repro.engine import configure, get_engine


@pytest.fixture(scope="session", autouse=True)
def engine_cache(tmp_path_factory):
    """Route all benchmark experiments through one fresh engine cache."""
    cache_dir = tmp_path_factory.mktemp("repro_cache")
    engine = configure(cache_dir=cache_dir, use_disk=True)
    yield engine


def pytest_sessionfinish(session, exitstatus):
    print()
    print(get_engine().stats_line())


def run_once(benchmark, func):
    """Time a heavy experiment a single time and return its result."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def report(result):
    """Print the regenerated table (shown with pytest -s; captured otherwise)."""
    print()
    print(result.render())
