"""Partial-reconfiguration cost model for cross-config instance swaps.

:class:`repro.runtime.reconfig.ReconfigurationTable` models *clock
gating* inside one static design — free, because no bitstream changes.
Moving an instance between two *portfolio* configs is different: the
fabric regions holding the resized blocks must be partially
reprogrammed, which costs real time (the instance is offline) and
energy (configuration-port power). After each batch on a portfolio pool
with ``reconfig_after`` set, the serve event loop asks
:func:`drift_candidate` whether another portfolio config would have
served the batch faster, and charges both costs in virtual time when an
instance swaps.

The model is linear in the "reconfiguration distance" between the two
configs — the number of customized units that change — mirroring how
partial-bitstream size scales with the reconfigured region on Zynq-class
parts (the CICC 2022 follow-up's PCAP numbers motivate the defaults:
low-millisecond swaps, tens of millijoules).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig


@dataclass(frozen=True)
class ReconfigCharge:
    """The virtual-time cost of one config swap."""

    seconds: float
    joules: float

    def __post_init__(self) -> None:
        if self.seconds < 0 or self.joules < 0:
            raise ConfigurationError("reconfiguration charges must be >= 0")


def reconfig_distance(a: HardwareConfig, b: HardwareConfig) -> int:
    """Units that must be reprogrammed to turn config ``a`` into ``b``.

    Each MAC in the Schur blocks is one unit; Cholesky Update units are
    grouped eight to a reconfigurable region (they are far smaller).
    """
    return abs(a.nd - b.nd) + abs(a.nm - b.nm) + ceil(abs(a.s - b.s) / 8)


@dataclass(frozen=True)
class PartialReconfigModel:
    """Linear swap-cost model: base + per-unit time and energy.

    Attributes:
        base_seconds / base_joules: fixed cost of any swap (bitstream
            setup, configuration-port handshake).
        seconds_per_unit / joules_per_unit: marginal cost per
            reconfigured unit (see :func:`reconfig_distance`).
        improvement_margin: relative service-time improvement another
            portfolio config must show, sustained, before the service
            considers a swap worth its cost.
    """

    base_seconds: float = 0.002
    seconds_per_unit: float = 0.0004
    base_joules: float = 0.02
    joules_per_unit: float = 0.005
    improvement_margin: float = 0.05

    def __post_init__(self) -> None:
        for name, value in (
            ("base_seconds", self.base_seconds),
            ("seconds_per_unit", self.seconds_per_unit),
            ("base_joules", self.base_joules),
            ("joules_per_unit", self.joules_per_unit),
        ):
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if not 0 <= self.improvement_margin < 1:
            raise ConfigurationError(
                f"improvement_margin must be in [0, 1), "
                f"got {self.improvement_margin}"
            )

    def swap_cost(self, a: HardwareConfig, b: HardwareConfig) -> ReconfigCharge:
        """Time and energy to swap an instance from ``a`` to ``b``.

        Zero when the configs are equal — swapping to yourself is a
        no-op, and the serve tier relies on that identity.
        """
        if a == b:
            return ReconfigCharge(0.0, 0.0)
        units = reconfig_distance(a, b)
        return ReconfigCharge(
            seconds=self.base_seconds + self.seconds_per_unit * units,
            joules=self.base_joules + self.joules_per_unit * units,
        )


DEFAULT_RECONFIG_MODEL = PartialReconfigModel()


def drift_candidate(
    current: HardwareConfig,
    portfolio: tuple[HardwareConfig, ...],
    service_by_config: dict[str, float],
    improvement_margin: float,
) -> HardwareConfig | None:
    """The portfolio config this batch would rather have run on, if any.

    Compares the batch's total service time on the instance's current
    config against every other portfolio config; returns the best
    alternative only when it beats the current config by more than the
    margin (relative), else ``None``. Deterministic: candidates are
    scanned in sorted-config order, strict improvement required.
    """
    current_s = service_by_config[current.label]
    best: HardwareConfig | None = None
    best_s = current_s * (1.0 - improvement_margin)
    for config in sorted(set(portfolio), key=HardwareConfig.as_tuple):
        if config == current:
            continue
        candidate_s = service_by_config[config.label]
        if candidate_s < best_s:
            best, best_s = config, candidate_s
    return best
