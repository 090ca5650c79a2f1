"""CPU baseline execution and power models (Sec. 7.1 / 7.4).

The paper's software baseline is a multithreaded, vectorized ceres-based
bundle adjustment. We model each platform by its *effective macro-op
throughput*: how many M-DFG cost-model operations per second the tuned
software sustains end to end. The number folds together SIMD width,
achieved IPC, parallel efficiency, and the heavy constant factors of a
dynamic sparse solver (double-precision autodiff, allocation, indexing),
and is calibrated so the High-Perf accelerator's speedup/energy factors
land at the paper's headline numbers (6.2x / 74x over Intel, 39.7x /
14.6x over Arm with the ~20 ms accelerator window).

Power is the measured package/board power under load (wall meter for
Comet Lake, TX1 sensing circuitry for the A57 cluster).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.data.stats import WindowStats
from repro.errors import ConfigurationError
from repro.mdfg.builder import build_window_mdfg


@dataclass(frozen=True)
class CpuPlatform:
    """One software baseline platform."""

    name: str
    cores: int
    frequency_hz: float
    effective_ops_per_second: float  # calibrated end-to-end throughput
    power_w: float  # package/board power under load

    def __post_init__(self) -> None:
        if self.cores < 1 or self.frequency_hz <= 0:
            raise ConfigurationError("cores and frequency must be positive")
        if self.effective_ops_per_second <= 0 or self.power_w <= 0:
            raise ConfigurationError("throughput and power must be positive")

    def window_time(self, stats: WindowStats, iterations: int = 6) -> float:
        """Seconds to process one sliding window in software."""
        ops = _window_ops(
            stats.num_features,
            round(stats.avg_observations, 2),
            stats.num_keyframes,
            stats.num_marginalized,
            stats.num_observations,
            iterations,
        )
        return ops / self.effective_ops_per_second

    def window_energy(self, stats: WindowStats, iterations: int = 6) -> float:
        """Joules to process one sliding window in software."""
        return self.window_time(stats, iterations) * self.power_w


@lru_cache(maxsize=4096)
def _window_ops(
    num_features: int,
    avg_observations: float,
    num_keyframes: int,
    num_marginalized: int,
    num_observations: int,
    iterations: int,
) -> float:
    stats = WindowStats(
        num_features=num_features,
        avg_observations=avg_observations,
        num_keyframes=num_keyframes,
        num_marginalized=num_marginalized,
        num_observations=num_observations,
    )
    return build_window_mdfg(stats, iterations).total_cost()


# Calibration (reference workload, 29.8M macro-ops/window):
#   Intel: 6.2x slower than the ~20 ms High-Perf design -> ~124 ms/window
#   Arm:   39.7x slower -> ~794 ms/window
INTEL_COMET_LAKE = CpuPlatform(
    name="Intel Comet Lake (12 cores, 2.9 GHz)",
    cores=12,
    frequency_hz=2.9e9,
    effective_ops_per_second=240e6,
    power_w=65.0,
)

ARM_A57 = CpuPlatform(
    name="Arm Cortex-A57 (4 cores, 1.9 GHz, Jetson TX1)",
    cores=4,
    frequency_hz=1.9e9,
    effective_ops_per_second=37.5e6,
    power_w=1.85,
)
