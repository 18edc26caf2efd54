"""Chip configurations for DTU 1.0 and DTU 2.0.

All numbers come straight from the paper:

- Table I — Cloudblazer i20 (DTU 2.0) board specs.
- §II-A — DTU 1.0: 32 VLIW cores in 4 clusters, 256 KB L1 per core, 4 MB L2
  per cluster, 2x 8 GB HBM2 at 512 GB/s, PCIe4 x16 (64 GB/s).
- §IV — DTU 2.0: 2 clusters x 12 cores; L2 split into 3 parts of 4 cores
  each; total L1/L2 capacity 3x DTU 1.0 (so 4x / 6x per-core / per-cluster);
  L3 capacity unchanged, bandwidth 1.6x via HBM2E; every 4 cores bundle with
  1 DMA engine and 1 synchronization engine, forming a *processing group*.
- §VI-D — DVFS range 1.0–1.4 GHz on DTU 2.0.

The configs are frozen dataclasses so that a simulator instance can never
mutate the chip out from under a benchmark sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.datatypes import DType

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class FeatureFlags:
    """DTU 2.0 features that can be toggled for ablation studies.

    Each flag corresponds to a row of the paper's Table II; disabling one
    reverts the simulator to the DTU 1.0 behaviour for that mechanism.
    """

    operator_fusion: bool = True
    repeat_dma: bool = True
    icache_prefetch: bool = True
    sparse_dma: bool = True
    l2_broadcast: bool = True
    affinity_allocation: bool = True
    fine_grained_vmm: bool = True
    direct_l1_l3_dma: bool = True
    power_management: bool = True

    def disable(self, **flags: bool) -> "FeatureFlags":
        """Return a copy with the given flags overridden (False by name)."""
        return replace(self, **{name: value for name, value in flags.items()})


@dataclass(frozen=True)
class MemoryLevelConfig:
    """One level of the on-chip hierarchy as the simulator sees it."""

    name: str
    capacity_bytes: int
    bandwidth_gbps: float
    """Per-port bandwidth, GB/s."""
    ports: int
    latency_ns: float


@dataclass(frozen=True)
class ChipConfig:
    """Static description of one DTU generation."""

    name: str
    clusters: int
    cores_per_cluster: int
    groups_per_cluster: int
    peak_tflops: dict[DType, float]
    l1_per_core: MemoryLevelConfig
    l2_per_group: MemoryLevelConfig
    l3: MemoryLevelConfig
    instruction_buffer_bytes: int
    base_clock_ghz: float
    max_clock_ghz: float
    tdp_watts: float
    pcie_gbps: float
    dma_config_overhead_ns: float
    sync_latency_ns: float
    features: FeatureFlags = field(default_factory=FeatureFlags)

    @property
    def total_cores(self) -> int:
        return self.clusters * self.cores_per_cluster

    @property
    def total_groups(self) -> int:
        return self.clusters * self.groups_per_cluster

    @property
    def cores_per_group(self) -> int:
        return self.cores_per_cluster // self.groups_per_cluster

    def peak_flops(self, dtype: DType) -> float:
        """Chip-wide peak rate in FLOP/s (or OP/s for integer types)."""
        return self.peak_tflops[dtype] * 1e12

    def core_flops_per_ns(self, dtype: DType, clock_ghz: float | None = None) -> float:
        """Per-core throughput in FLOP per nanosecond at the given clock."""
        clock = self.max_clock_ghz if clock_ghz is None else clock_ghz
        per_core = self.peak_flops(dtype) / self.total_cores
        return per_core * (clock / self.max_clock_ghz) / 1e9

    def with_features(self, features: FeatureFlags) -> "ChipConfig":
        return replace(self, features=features)


def dtu2_config(features: FeatureFlags | None = None) -> ChipConfig:
    """DTU 2.0 as integrated on the Cloudblazer i20 (paper Table I, §IV)."""
    return ChipConfig(
        name="DTU 2.0",
        clusters=2,
        cores_per_cluster=12,
        groups_per_cluster=3,
        peak_tflops={
            DType.FP32: 32.0,
            DType.TF32: 128.0,
            DType.FP16: 128.0,
            DType.BF16: 128.0,
            DType.INT32: 32.0,
            DType.INT16: 128.0,
            DType.INT8: 256.0,
        },
        # Per-core L1 is 4x DTU 1.0's 256 KB (Table II row 4).
        l1_per_core=MemoryLevelConfig(
            name="L1", capacity_bytes=1 * MB, bandwidth_gbps=512.0, ports=1,
            latency_ns=2.0,
        ),
        # L2 per cluster is 6x DTU 1.0's 4 MB = 24 MB, split across 3 groups;
        # each slice has 4 parallel read/write ports (Table II row 6).
        l2_per_group=MemoryLevelConfig(
            name="L2", capacity_bytes=8 * MB, bandwidth_gbps=1024.0, ports=4,
            latency_ns=12.0,
        ),
        # Same 16 GB capacity as DTU 1.0, HBM2E at 1.6x bandwidth = 819 GB/s.
        l3=MemoryLevelConfig(
            name="L3", capacity_bytes=16 * GB, bandwidth_gbps=819.0, ports=1,
            latency_ns=120.0,
        ),
        instruction_buffer_bytes=128 * KB,
        base_clock_ghz=1.0,
        max_clock_ghz=1.4,
        tdp_watts=150.0,
        pcie_gbps=64.0,
        dma_config_overhead_ns=220.0,
        sync_latency_ns=40.0,
        features=features or FeatureFlags(),
    )


def dtu1_config() -> ChipConfig:
    """DTU 1.0 as integrated on the Cloudblazer i10 (paper §II-A)."""
    features = FeatureFlags(
        operator_fusion=True,   # fusion existed but had less memory headroom
        repeat_dma=False,
        icache_prefetch=False,
        sparse_dma=False,
        l2_broadcast=False,
        affinity_allocation=False,
        fine_grained_vmm=False,
        direct_l1_l3_dma=False,
        power_management=False,
    )
    return ChipConfig(
        name="DTU 1.0",
        clusters=4,
        cores_per_cluster=8,
        groups_per_cluster=1,
        peak_tflops={
            DType.FP32: 20.0,
            DType.TF32: 20.0,
            DType.FP16: 80.0,
            DType.BF16: 80.0,
            DType.INT32: 20.0,
            DType.INT16: 80.0,
            DType.INT8: 80.0,
        },
        l1_per_core=MemoryLevelConfig(
            name="L1", capacity_bytes=256 * KB, bandwidth_gbps=512.0, ports=1,
            latency_ns=2.0,
        ),
        l2_per_group=MemoryLevelConfig(
            name="L2", capacity_bytes=4 * MB, bandwidth_gbps=1024.0, ports=1,
            latency_ns=12.0,
        ),
        l3=MemoryLevelConfig(
            name="L3", capacity_bytes=16 * GB, bandwidth_gbps=512.0, ports=1,
            latency_ns=120.0,
        ),
        instruction_buffer_bytes=64 * KB,
        base_clock_ghz=1.0,
        max_clock_ghz=1.25,
        tdp_watts=150.0,
        pcie_gbps=64.0,
        dma_config_overhead_ns=220.0,
        sync_latency_ns=60.0,
        features=features,
    )
