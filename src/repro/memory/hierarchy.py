"""The 3-level memory hierarchy of the DTU (paper §IV-B, Fig. 5).

Each :class:`MemoryLevel` couples *capacity accounting* (allocations fail
loudly when a level overflows — the constraint the tiling auto-tuner works
against) with a *timed transfer model* (port arbitration + latency +
bandwidth) for the performance simulator.

Levels by convention:

- **L1** — per-core local data buffer (1 MB on DTU 2.0).
- **L2** — per-processing-group shared memory (8 MB slice, 4 ports).
- **L3** — HBM (16 GB; 819 GB/s HBM2E on DTU 2.0, 512 GB/s HBM2 on 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MemoryLevelConfig
from repro.sim.kernel import Resource, Simulator, Timeout


class OutOfMemoryError(RuntimeError):
    """An allocation exceeded a memory level's capacity."""


@dataclass
class Allocation:
    """A live region inside one memory level."""

    name: str
    nbytes: int
    bank: int = 0


class MemoryLevel:
    """One level of the hierarchy: capacity + ports + timing."""

    def __init__(
        self,
        sim: Simulator,
        config: MemoryLevelConfig,
        name: str | None = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = name or config.name
        self.ports = Resource(sim, capacity=config.ports, name=f"{self.name}.ports")
        self._allocations: dict[str, Allocation] = {}
        self.bytes_transferred = 0
        #: FaultInjector when an ECC campaign is attached (see repro.faults);
        #: None keeps the transfer path bit-identical to a fault-free build.
        self.faults = None

    # -- capacity accounting ----------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.config.capacity_bytes

    @property
    def used_bytes(self) -> int:
        return sum(alloc.nbytes for alloc in self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def allocate(self, name: str, nbytes: int, bank: int = 0) -> Allocation:
        if name in self._allocations:
            raise OutOfMemoryError(f"{self.name}: {name!r} already allocated")
        if nbytes < 0:
            raise ValueError(f"negative allocation size {nbytes}")
        if nbytes > self.free_bytes:
            raise OutOfMemoryError(
                f"{self.name}: cannot allocate {nbytes} bytes "
                f"({self.free_bytes} free of {self.capacity_bytes})"
            )
        allocation = Allocation(name=name, nbytes=nbytes, bank=bank)
        self._allocations[name] = allocation
        return allocation

    def free(self, name: str) -> None:
        if name not in self._allocations:
            raise OutOfMemoryError(f"{self.name}: free of unknown region {name!r}")
        del self._allocations[name]

    def lookup(self, name: str) -> Allocation:
        if name not in self._allocations:
            raise OutOfMemoryError(f"{self.name}: unknown region {name!r}")
        return self._allocations[name]

    def reset(self) -> None:
        self._allocations.clear()

    # -- timing model -------------------------------------------------------

    def transfer_time_ns(self, nbytes: int) -> float:
        """Unloaded service time for one transfer through one port."""
        # GB/s numerically equals bytes/ns.
        return self.config.latency_ns + nbytes / self.config.bandwidth_gbps

    def transfer(self, nbytes: int):
        """Simulation process: move ``nbytes`` through one port.

        Contends for a port (FIFO), then occupies it for the service time.
        With a fault injector attached, each transfer may additionally hit
        an ECC event: correctable errors pay the scrub-and-retry latency
        while still holding the port; uncorrectable errors are queued as
        fatal for the enclosing launch. Yields from inside a simulator
        process.
        """
        ports = self.ports
        if not ports.try_acquire():  # a free port is ours with no wakeup
            yield ports.request()
        try:
            yield Timeout(self.transfer_time_ns(nbytes))
            if self.faults is not None:
                penalty_ns = self.faults.ecc_outcome(self.name, self.sim.now)
                if penalty_ns > 0:
                    yield Timeout(penalty_ns)
            self.bytes_transferred += nbytes
        finally:
            ports.release()


@dataclass
class HierarchyStats:
    """Traffic summary across the hierarchy after a simulation run."""

    l1_bytes: int
    l2_bytes: int
    l3_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.l1_bytes + self.l2_bytes + self.l3_bytes


class MemoryHierarchy:
    """L1 (per core) + L2 (per group) + shared L3 for one chip instance."""

    def __init__(
        self,
        sim: Simulator,
        l1_config: MemoryLevelConfig,
        l2_config: MemoryLevelConfig,
        l3_config: MemoryLevelConfig,
        cores: int,
        groups: int,
    ) -> None:
        self.sim = sim
        self.l1 = [
            MemoryLevel(sim, l1_config, name=f"L1.core{core}") for core in range(cores)
        ]
        self.l2 = [
            MemoryLevel(sim, l2_config, name=f"L2.group{group}")
            for group in range(groups)
        ]
        self.l3 = MemoryLevel(sim, l3_config, name="L3")

    def stats(self) -> HierarchyStats:
        return HierarchyStats(
            l1_bytes=sum(level.bytes_transferred for level in self.l1),
            l2_bytes=sum(level.bytes_transferred for level in self.l2),
            l3_bytes=self.l3.bytes_transferred,
        )
