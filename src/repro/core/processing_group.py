"""Processing group: the isolation unit of DTU 2.0 (paper §IV, Fig. 2).

"every 4 compute cores in each cluster are bundled with 1 DMA engine and
1 synchronization engine. In this way, each cluster is abstracted as 3
identical and independent processing groups."

:class:`ProcessingGroup` wires those pieces to one Simulator: the 4-port L2
slice with affinity allocation, the group's DMA engine, sync engine, and the
per-core instruction buffers. The executor drives groups; the accelerator
facade builds them from a :class:`~repro.core.config.ChipConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ChipConfig
from repro.core.resource import GroupId
from repro.dma.engine import DmaEngine
from repro.memory.allocator import AffinityAllocator
from repro.memory.hierarchy import MemoryLevel
from repro.memory.icache import InstructionBuffer
from repro.memory.ports import PortedL2
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.sync.engine import SyncEngine


@dataclass
class ProcessingGroup:
    """One isolated slice: cores + L2 slice + DMA + sync."""

    group_id: GroupId
    l1: list[MemoryLevel]
    l2: PortedL2
    allocator: AffinityAllocator
    dma: DmaEngine
    sync: SyncEngine
    icaches: list[InstructionBuffer]

    @property
    def name(self) -> str:
        return str(self.group_id)


def build_group(
    sim: Simulator,
    chip: ChipConfig,
    group_id: GroupId,
    trace: Trace | None = None,
) -> ProcessingGroup:
    """Instantiate one processing group per the chip configuration."""
    cores = chip.cores_per_group
    l1_levels = [
        MemoryLevel(
            sim, chip.l1_per_core, name=f"L1.{group_id}.core{core}"
        )
        for core in range(cores)
    ]
    l2_level = MemoryLevel(sim, chip.l2_per_group, name=f"L2.{group_id}")
    ported = PortedL2(l2_level, cores_per_group=cores)
    allocator = AffinityAllocator(
        ported, affinity_enabled=chip.features.affinity_allocation
    )
    dma = DmaEngine(
        sim,
        name=f"dma.{group_id}",
        config_overhead_ns=chip.dma_config_overhead_ns,
        allow_direct_l1_l3=chip.features.direct_l1_l3_dma,
        trace=trace,
    )
    sync = SyncEngine(
        sim,
        group_id=group_id.index,
        latency_ns=chip.sync_latency_ns,
    )
    icaches = [
        InstructionBuffer(
            capacity_bytes=chip.instruction_buffer_bytes,
            load_bandwidth_gbps=chip.l3.bandwidth_gbps / chip.total_cores,
            cache_mode=chip.features.icache_prefetch,
            prefetch_enabled=chip.features.icache_prefetch,
        )
        for _ in range(cores)
    ]
    return ProcessingGroup(
        group_id=group_id,
        l1=l1_levels,
        l2=ported,
        allocator=allocator,
        dma=dma,
        sync=sync,
        icaches=icaches,
    )
