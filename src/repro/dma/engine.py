"""The DMA engine: timed data movement through the memory hierarchy.

§IV-C behaviours modelled here:

- movement between *any* two levels on DTU 2.0, including direct L1<->L3
  (saving L2 bandwidth) and same-level moves; DTU 1.0 only allowed
  L1<->L2 and L2<->L3, so routing validates against a capability flag;
- per-transaction *configuration overhead* paid by the issuing compute
  core, reduced to one per sequence in repeat mode (Fig. 6);
- sparse transfers that charge the wire for compressed bytes while the
  destination receives the dense tensor;
- broadcast writes to several destination L2 slices in one pass.

The engine is a simulation actor: :meth:`transfer` is a process generator
that contends for the source and destination ports and advances simulated
time; :meth:`transfer_time_ns` is the closed-form estimate the data-flow
auto-tuner plans with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.plan import DMA_RETRY_LIMIT
from repro.memory.hierarchy import MemoryLevel
from repro.sim.kernel import AllOf, Simulator, Timeout
from repro.sim.trace import Trace


class DmaRouteError(RuntimeError):
    """The chip generation cannot move data along the requested route."""


_LEVEL_RANK = {"L1": 1, "L2": 2, "L3": 3}


def _rank(name: str) -> int:
    for prefix, rank in _LEVEL_RANK.items():
        if name.startswith(prefix):
            return rank
    raise DmaRouteError(f"level {name!r} is not part of the hierarchy")


def check_route(
    src: str, dst: str, allow_direct_l1_l3: bool, engine: str = "dma"
) -> None:
    """Reject a move between the named levels that the chip cannot wire.

    DTU 2.0 (``allow_direct_l1_l3``) moves data in any direction; DTU 1.0
    only between adjacent levels (L1<->L2, L2<->L3).
    """
    src_rank, dst_rank = _rank(src), _rank(dst)
    if allow_direct_l1_l3:
        return  # DTU 2.0: "data movements in any direction"
    if {src_rank, dst_rank} in ({1, 2}, {2, 3}):
        return
    raise DmaRouteError(
        f"{engine}: route {src} -> {dst} requires DTU 2.0's any-direction DMA"
    )


@dataclass
class DmaStats:
    """Counters one engine accumulates over a run."""

    transactions: int = 0
    configurations: int = 0
    bytes_moved: int = 0
    wire_bytes: int = 0
    config_time_ns: float = 0.0
    busy_time_ns: float = 0.0
    replays: int = 0
    faults: int = 0


@dataclass
class DmaEngine:
    """One processing group's DMA engine.

    ``faults`` is the accelerator's :class:`~repro.faults.FaultInjector`
    when a fault campaign is attached: each transaction then draws an
    outcome — clean, CRC-detected corruption (the transaction replays,
    config + passes repeated, bounded by the plan's retry limit) or an
    engine abort (fatal for the launch; the executor raises after the
    simulation drains). With no injector the timing path is untouched.
    """

    sim: Simulator
    name: str = "dma"
    config_overhead_ns: float = 220.0
    allow_direct_l1_l3: bool = True
    trace: Trace | None = None
    stats: DmaStats = field(default_factory=DmaStats)
    faults: object | None = None

    def __post_init__(self) -> None:
        self._write_name = f"{self.name}.write"

    def validate_route(self, src: MemoryLevel, dst: MemoryLevel) -> None:
        """Reject routes the chip generation does not wire up."""
        check_route(src.name, dst.name, self.allow_direct_l1_l3, self.name)

    # -- planning (closed form, no simulation) ------------------------------

    def transfer_time_ns(
        self,
        nbytes: int,
        src: MemoryLevel,
        dst: MemoryLevel,
        configurations: int = 1,
        wire_bytes: int | None = None,
        copies: int = 1,
        hardware_broadcast: bool = True,
    ) -> float:
        """Unloaded end-to-end estimate for one (possibly compound) move.

        ``copies`` models broadcast: with ``hardware_broadcast`` all copies
        are written in the same pass (to distinct L2 slices, in parallel);
        without it, each copy costs a full read+write pass.
        """
        self.validate_route(src, dst)
        wire = nbytes if wire_bytes is None else wire_bytes
        per_pass = max(src.transfer_time_ns(wire), dst.transfer_time_ns(nbytes))
        passes = 1 if hardware_broadcast else copies
        return configurations * self.config_overhead_ns + per_pass * passes

    # -- simulation process ---------------------------------------------------

    def transfer(
        self,
        nbytes: int,
        src: MemoryLevel,
        dst: "MemoryLevel | list[MemoryLevel]",
        configurations: int = 1,
        wire_bytes: int | None = None,
        hardware_broadcast: bool = True,
        label: str = "dma",
    ):
        """Process generator: perform the move, contending for real ports.

        ``dst`` may be a list of levels — a broadcast. With hardware
        broadcast the source is read once and every destination is written
        in the same pass; without, the read+write pass repeats per copy.
        Every route is checked here, before the process starts.
        """
        destinations = dst if isinstance(dst, list) else [dst]
        for destination in destinations:
            self.validate_route(src, destination)
        return self.transfer_checked(
            nbytes, src, destinations, configurations, wire_bytes,
            hardware_broadcast, label,
        )

    def transfer_checked(
        self,
        nbytes: int,
        src: MemoryLevel,
        destinations: list[MemoryLevel],
        configurations: int = 1,
        wire_bytes: int | None = None,
        hardware_broadcast: bool = True,
        label: str = "dma",
    ):
        """:meth:`transfer` for routes the caller already checked.

        The executor's launch plan checks its L3 -> L2 route once per
        model (:func:`check_route`), not once per transfer.
        """
        sim = self.sim
        wire = nbytes if wire_bytes is None else wire_bytes
        start = sim.now

        if hardware_broadcast:
            passes = [destinations]
        else:
            passes = [[destination] for destination in destinations]

        replays = 0
        while True:
            config_time = configurations * self.config_overhead_ns
            self.stats.configurations += configurations
            self.stats.config_time_ns += config_time
            yield Timeout(config_time)

            for pass_destinations in passes:
                # Writes run as their own processes; the read runs inline in
                # this one (same port order, two fewer wakeups per pass),
                # and writes that finished first need no wakeup either.
                writes = [
                    sim.spawn(
                        destination.transfer(nbytes), name=self._write_name
                    ).done_event
                    for destination in pass_destinations
                ]
                yield from src.transfer(wire)
                if not all(write.fired for write in writes):
                    yield AllOf(writes)

            if self.faults is None:
                break
            outcome = self.faults.dma_outcome(self.name, label, self.sim.now)
            if outcome is None:
                break
            self.stats.faults += 1
            if outcome == "abort":
                break  # fatal: queued on the injector; executor raises later
            # CRC mismatch at the destination: replay the whole transaction.
            replays += 1
            if replays > DMA_RETRY_LIMIT:
                self.faults.dma_replays_exhausted(self.name, label, self.sim.now)
                break
            self.stats.replays += 1

        if self.faults is not None:
            # Corruption the CRC *missed*: no replay, no abort, no timing
            # change — just a detected=False record (repro.faults.silent).
            self.faults.silent_dma(self.name, label, self.sim.now)

        end = self.sim.now
        self.stats.transactions += 1
        self.stats.bytes_moved += nbytes * len(destinations)
        self.stats.wire_bytes += wire * len(passes)
        self.stats.busy_time_ns += end - start
        if self.trace is not None:
            self.trace.record(self.name, label, start, end)
