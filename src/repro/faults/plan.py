"""FaultPlan: the declarative description of a fault-injection campaign.

A plan is pure configuration — per-component fault *rates* — and carries
the seed that makes a campaign reproducible: the same plan and seed
always produce the same fault sequence against the same workload (the
simulator itself is deterministic, so draw order is deterministic too).

Rates are per *event* at the component's natural granularity:

- ``dma_corrupt_rate`` / ``dma_abort_rate`` — per DMA transaction,
- ``ecc_ce_rate`` / ``ecc_ue_rate`` — per memory-level transfer,
- ``core_hang_rate`` / ``core_slowdown_rate`` — per kernel per group,
- ``sync_loss_rate`` — per synchronization-engine operation.

The latency penalties recovery costs are module constants, the same for
every campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

from repro.core.errors import reject_non_finite

#: Replays before a still-corrupt DMA transaction is declared failed.
DMA_RETRY_LIMIT = 3
#: Scrub-and-retry latency of one correctable ECC event.
ECC_RETRY_NS = 600.0
#: Compute-time multiplier of a derated kernel.
CORE_SLOWDOWN_FACTOR = 2.0
#: Time a hung core burns before the watchdog resets it.
WATCHDOG_TIMEOUT_NS = 200_000.0
#: Recovery latency of a lost synchronization event.
SYNC_TIMEOUT_NS = 5_000.0


@dataclass(frozen=True)
class FaultPlan:
    """Per-component fault rates for one campaign."""

    seed: int = 0

    # -- rates (probability per event, in [0, 1]) ---------------------------
    dma_corrupt_rate: float = 0.0
    """CRC-detected corruption of one DMA transaction -> replay."""
    dma_abort_rate: float = 0.0
    """DMA engine abort mid-transaction -> launch fails (retryable)."""
    ecc_ce_rate: float = 0.0
    """Correctable (single-bit) ECC event -> scrub + retry latency."""
    ecc_ue_rate: float = 0.0
    """Uncorrectable (multi-bit) ECC event -> launch fails (retryable)."""
    core_hang_rate: float = 0.0
    """Core stops retiring -> watchdog reset; launch fails (retryable)."""
    core_slowdown_rate: float = 0.0
    """Thermal/voltage derating of one kernel on one group."""
    sync_loss_rate: float = 0.0
    """Lost sync event -> recovered by the engine's timeout path."""

    # -- silent data corruption (never raises; see repro.faults.silent) -----
    sdc_gemm_rate: float = 0.0
    """Silent corruption of one GEMM/compute result — wrong numbers, no
    error signal. Per kernel per group on the timed path, per ``gemm``
    call on the functional :class:`~repro.engines.matrix.MatrixEngine`."""
    sdc_dma_rate: float = 0.0
    """Silent corruption of one DMA transaction's payload that the CRC
    *missed* (contrast ``dma_corrupt_rate``, which is CRC-detected)."""
    sdc_sparse_rate: float = 0.0
    """Silent corruption of one sparse-codec decompression."""
    sdc_cores: tuple[int, ...] = ()
    """Defective core indices corruption is attributed to; empty means
    any core (drawn uniformly) — per-core attribution feeds the fleet's
    repeat-offender containment."""

    def __post_init__(self) -> None:
        reject_non_finite(self)
        for name in RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if any(core < 0 for core in self.sdc_cores):
            raise ValueError(f"sdc_cores must be >= 0, got {self.sdc_cores}")

    @cached_property
    def enabled(self) -> bool:
        """True when any fault rate is non-zero.

        Computed once per plan: the plan is frozen, and
        ``dataclasses.replace`` builds a new instance with its own cache.
        """
        return any(getattr(self, name) > 0.0 for name in RATE_FIELDS)

    # -- aggregate views the serving layer plans with -----------------------

    @property
    def transient_event_rate(self) -> float:
        """Per-event probability of a retry-recoverable perturbation."""
        return 1.0 - (1.0 - self.dma_corrupt_rate) * (1.0 - self.ecc_ce_rate)

    @property
    def fatal_event_rate(self) -> float:
        """Per-event probability a launch must be replayed from scratch."""
        survive = (
            (1.0 - self.dma_abort_rate)
            * (1.0 - self.ecc_ue_rate)
            * (1.0 - self.core_hang_rate)
        )
        return 1.0 - survive

    @property
    def silent_event_rate(self) -> float:
        """Per-event probability of an *undetected* wrong result.

        Silent corruption contributes to neither transient nor fatal
        rates — nothing raises, nothing retries — which is exactly the
        threat: the serving layer would return the corrupted answer
        unless a detection layer (ABFT, screens, audits) is attached.
        """
        survive = (
            (1.0 - self.sdc_gemm_rate)
            * (1.0 - self.sdc_dma_rate)
            * (1.0 - self.sdc_sparse_rate)
        )
        return 1.0 - survive


#: Names of every per-event fault rate field, in declaration order.
RATE_FIELDS = tuple(
    spec.name for spec in fields(FaultPlan) if spec.name.endswith("_rate")
)
