"""Simulated accelerator instances: real numerics, modeled service time.

Each :class:`AcceleratorInstance` stands in for one synthesized FPGA
(one Tbl. 2 design). Executing a window does two things:

1. runs the *actual* window optimization (the estimator's NLS solve —
   bit-identical to what the modeled hardware computes, per the
   conformance contract between ``hw.sim.functional`` and the software
   solver), on the execution backend (the event-loop thread or a worker
   process); and
2. charges *simulated* service time in virtual seconds: the analytical
   latency model (Equ. 13-15) for the gated configuration and applied
   iteration count, plus the host-link transfer for the window payload
   (and the 3 config bytes when the decision changed).

``fidelity="functional"`` takes the per-iteration cycle charge from
:func:`repro.hw.sim.functional.iteration_cycles` — the Fig. 10
Evaluate/Update Cholesky timeline instead of the closed-form Equ. 7-8 —
computed from the window's :class:`WindowStats` alone, so it needs no
window problem and runs on either execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.stats import WindowStats
from repro.errors import ConfigurationError
from repro.hw.config import HardwareConfig
from repro.hw.fpga import FpgaPlatform, ZC706
from repro.hw.latency import marginalization_latency, nls_iteration_latency
from repro.hw.sim.functional import iteration_cycles
from repro.runtime.host import HostLink, window_payload_bytes

FIDELITIES = ("analytical", "functional")


@dataclass(frozen=True)
class ServiceCharge:
    """One window's simulated occupancy of an accelerator instance."""

    compute_s: float  # Equ. 13-15 (or measured-Cholesky) compute time
    transfer_s: float  # host-link payload (+3 config bytes if reconfigured)

    @property
    def total_s(self) -> float:
        return self.compute_s + self.transfer_s


@dataclass
class AcceleratorInstance:
    """One simulated accelerator worker in the pool."""

    instance_id: int
    platform: FpgaPlatform = ZC706
    link: HostLink = field(default_factory=HostLink)
    fidelity: str = "analytical"
    # The design point this instance currently holds. Homogeneous pools
    # give every instance the profile's named design; a portfolio fleet
    # mixes configs, and partial reconfiguration may swap this at
    # runtime (see reconfigure()).
    config: HardwareConfig = field(default_factory=HardwareConfig)
    free_at: float = 0.0
    windows_executed: int = 0
    busy_seconds: float = 0.0
    batches: int = 0
    reconfigurations: int = 0

    def __post_init__(self) -> None:
        if self.fidelity not in FIDELITIES:
            raise ConfigurationError(
                f"fidelity must be one of {FIDELITIES}, got {self.fidelity!r}"
            )

    @property
    def config_id(self) -> str:
        """Stable telemetry identity of the current design point."""
        return self.config.label

    def charge(
        self,
        stats: WindowStats,
        config: HardwareConfig,
        iterations: int,
        reconfigured: bool,
    ) -> "ServiceCharge":
        """Virtual seconds this window occupies the instance."""
        if self.fidelity == "functional":
            per_iteration, _ = iteration_cycles(stats, config)
        else:
            per_iteration = nls_iteration_latency(stats, config)
        compute_cycles = iterations * per_iteration + marginalization_latency(
            stats, config
        )
        compute = compute_cycles / self.platform.frequency_hz
        transfer = self.link.transfer_seconds(
            window_payload_bytes(stats, reconfigured=reconfigured)
        )
        return ServiceCharge(compute_s=compute, transfer_s=transfer)

    def occupy(self, start: float, seconds: float) -> float:
        """Charge ``seconds`` of busy time starting at ``start``; returns
        the new free-at time."""
        self.free_at = start + seconds
        self.busy_seconds += seconds
        self.windows_executed += 1
        return self.free_at

    def reconfigure(self, config: HardwareConfig, seconds: float, start: float) -> float:
        """Partially reconfigure to ``config`` starting at ``start``.

        The instance is offline for ``seconds`` of virtual time (counted
        as busy — the fabric is occupied by the configuration port).
        Returns the new free-at time. The swap energy is not counted
        here: the service records it with
        :meth:`~repro.serve.telemetry.Telemetry.record_reconfig`, apart
        from window energy.
        """
        self.config = config
        self.reconfigurations += 1
        self.busy_seconds += seconds
        self.free_at = start + seconds
        return self.free_at

    def utilization(self, horizon_s: float) -> float:
        return self.busy_seconds / horizon_s if horizon_s > 0 else 0.0

    def as_dict(self, horizon_s: float) -> dict:
        return {
            "instance_id": self.instance_id,
            "config_id": self.config_id,
            "windows_executed": self.windows_executed,
            "batches": self.batches,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization(horizon_s),
            "reconfigurations": self.reconfigurations,
        }


def make_pool(
    num_instances: int,
    platform: FpgaPlatform = ZC706,
    link: HostLink | None = None,
    fidelity: str = "analytical",
    configs: list[HardwareConfig] | tuple[HardwareConfig, ...] | None = None,
) -> list[AcceleratorInstance]:
    """A pool of ``num_instances`` accelerator instances.

    ``configs`` makes the pool heterogeneous: one
    :class:`HardwareConfig` per instance, in instance-id order (a solved
    portfolio's ``instance_configs()`` expansion). Omitted, every
    instance carries the default config — the homogeneous pool the FIFO
    baseline uses.
    """
    if num_instances < 1:
        raise ConfigurationError("need at least one accelerator instance")
    if configs is not None and len(configs) != num_instances:
        raise ConfigurationError(
            f"configs must list one HardwareConfig per instance: got "
            f"{len(configs)} for {num_instances} instances"
        )
    return [
        AcceleratorInstance(
            instance_id=i,
            platform=platform,
            link=link or HostLink(),
            fidelity=fidelity,
            config=configs[i] if configs is not None else HardwareConfig(),
        )
        for i in range(num_instances)
    ]
