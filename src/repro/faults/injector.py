"""FaultInjector: seeded, deterministic fault draws at hardware hook points.

One injector is attached to one :class:`~repro.core.accelerator.Accelerator`
(via ``attach_faults``) and consulted at well-defined hook points:

- ``dma_outcome``    — after each DMA transaction (dma/engine.py),
- ``ecc_outcome``    — after each memory-level transfer (memory/hierarchy.py),
- ``perturb_compute``— per kernel per group (runtime/executor.py),
- ``sync_lost``      — per sync-engine operation (sync/engine.py),
- ``core_hang``      — per VLIW packet program (engines/compute_core.py).

Every hook is a no-op path when no injector is attached, so the default
simulation is bit-identical to a fault-free build. Draws come from one
``random.Random(plan.seed)`` stream; because the discrete-event simulator
is deterministic (ties break by spawn order), the same seed + plan +
workload reproduces the exact same fault sequence.

Transient perturbations (DMA replays, correctable ECC scrubs, slowdowns,
lost-sync timeouts) are realized as latency by the component itself and
recorded as *recovered*. Fatal faults (aborts, uncorrectable ECC, hangs)
are queued on the injector; the executor fast-forwards the rest of the
launch and raises the typed exception after the simulation drains, so
simulator state (ports, barriers) is never left dangling and the launch
can be retried on the same accelerator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.faults.errors import (
    CoreHangFault,
    DmaTransferFault,
    HardwareFault,
    UncorrectableEccError,
)
from repro.faults.plan import (
    CORE_SLOWDOWN_FACTOR,
    DMA_RETRY_LIMIT,
    ECC_RETRY_NS,
    WATCHDOG_TIMEOUT_NS,
    FaultPlan,
)


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, for observability and determinism checks."""

    kind: str
    component: str
    time_ns: float
    recovered: bool
    detail: str = ""
    device: str = ""
    """Device identity the fault hit — distinguishes records across a
    fleet of accelerators sharing one observability hub."""
    detected: bool = True
    """Whether the stack *saw* this fault. Every legacy fault is detected
    by construction (CRC, ECC, watchdog, typed raise); silent corruption
    records start ``False`` and flip via :meth:`FaultInjector.mark_detected`
    when a checksum, screen or audit catches it."""
    method: str = ""
    """Detection channel that caught a silent fault (``abft``/``screen``/
    ``audit``); empty for legacy faults and for still-undetected ones."""


@dataclass
class FaultInjector:
    """Seeded fault source shared by every component of one accelerator."""

    plan: FaultPlan
    seed: int | None = None
    device: str = ""
    """Identity of the accelerator this injector is attached to; stamped
    on every record so a fleet's fault streams stay distinguishable."""
    records: list[FaultRecord] = field(default_factory=list)
    _rng: random.Random = field(init=False, repr=False)
    _fatal: list[HardwareFault] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed if self.seed is not None else self.plan.seed)

    # -- bookkeeping ---------------------------------------------------------

    def _draw(self, rate: float) -> bool:
        """One Bernoulli draw; zero rates consume no randomness."""
        return rate > 0.0 and self._rng.random() < rate

    def record(
        self,
        kind: str,
        component: str,
        time_ns: float,
        recovered: bool,
        detail: str = "",
        detected: bool = True,
        method: str = "",
    ) -> None:
        self.records.append(
            FaultRecord(
                kind=kind, component=component, time_ns=time_ns,
                recovered=recovered, detail=detail, device=self.device,
                detected=detected, method=method,
            )
        )

    def fail(
        self, fault: HardwareFault, kind: str, component: str, time_ns: float
    ) -> None:
        """Queue a fatal fault; the executor raises it after the sim drains."""
        self.record(kind, component, time_ns, recovered=False, detail=str(fault))
        self._fatal.append(fault)

    @property
    def fatal_pending(self) -> bool:
        return bool(self._fatal)

    def take_fatal(self) -> HardwareFault | None:
        """Pop the first queued fatal fault (clearing the rest) or None."""
        if not self._fatal:
            return None
        first, self._fatal = self._fatal[0], []
        return first

    def counters(self) -> dict[str, float]:
        """Aggregate fault counts, merged into ExecutionResult.counters."""
        silent = sum(not r.detected for r in self.records)
        out: dict[str, float] = {
            "faults_injected": float(len(self.records)),
            "faults_recovered": float(sum(r.recovered for r in self.records)),
            # Silent records are unrecovered but not fatal — nothing raised.
            "faults_fatal": float(
                sum(not r.recovered and r.detected for r in self.records)
            ),
        }
        if silent:
            # Key exists only when silent faults were injected, so legacy
            # counter dicts stay byte-identical without an SDC campaign.
            out["faults_silent"] = float(silent)
        for rec in self.records:
            key = f"fault.{rec.kind}"
            out[key] = out.get(key, 0.0) + 1.0
        return out

    @property
    def silent_records(self) -> list[FaultRecord]:
        """Injected-but-undetected corruption records (the SDC backlog)."""
        return [r for r in self.records if not r.detected]

    def mark_detected(self, record: FaultRecord, method: str) -> FaultRecord:
        """Flip one silent record's detection channel in place.

        Returns the updated (frozen, replaced) record; the original list
        slot is swapped so later ``silent_records`` views shrink.
        """
        from dataclasses import replace

        updated = replace(record, detected=True, method=method)
        for index, existing in enumerate(self.records):
            if existing is record:
                self.records[index] = updated
                break
        return updated

    # -- hook points -----------------------------------------------------------

    def dma_outcome(self, engine: str, label: str, time_ns: float) -> str | None:
        """Per-transaction draw: None (clean), 'corrupt', or 'abort'."""
        if self._draw(self.plan.dma_abort_rate):
            self.fail(
                DmaTransferFault(f"{engine}: aborted transaction {label!r}"),
                kind="dma.abort", component=engine, time_ns=time_ns,
            )
            return "abort"
        if self._draw(self.plan.dma_corrupt_rate):
            self.record("dma.corrupt", engine, time_ns, recovered=True, detail=label)
            return "corrupt"
        return None

    def dma_replays_exhausted(self, engine: str, label: str, time_ns: float) -> None:
        """A transaction stayed corrupt after ``DMA_RETRY_LIMIT`` replays."""
        self.fail(
            DmaTransferFault(
                f"{engine}: {label!r} still corrupt after "
                f"{DMA_RETRY_LIMIT} replays"
            ),
            kind="dma.replay_exhausted", component=engine, time_ns=time_ns,
        )

    def ecc_outcome(self, level: str, time_ns: float) -> float:
        """Per-transfer draw; returns extra scrub latency in ns (0 if clean)."""
        if self._draw(self.plan.ecc_ue_rate):
            self.fail(
                UncorrectableEccError(f"{level}: uncorrectable ECC error"),
                kind="ecc.ue", component=level, time_ns=time_ns,
            )
            return 0.0
        if self._draw(self.plan.ecc_ce_rate):
            self.record("ecc.ce", level, time_ns, recovered=True)
            return ECC_RETRY_NS
        return 0.0

    def perturb_compute(
        self, kernel: str, group: str, compute_ns: float, time_ns: float
    ) -> float:
        """Per-kernel-per-group draw; returns the perturbed compute time."""
        if self._draw(self.plan.core_hang_rate):
            self.fail(
                CoreHangFault(f"{group}: hung in {kernel!r}; watchdog reset"),
                kind="core.hang", component=group, time_ns=time_ns,
            )
            return max(compute_ns, WATCHDOG_TIMEOUT_NS)
        if self._draw(self.plan.core_slowdown_rate):
            self.record("core.slowdown", group, time_ns, recovered=True, detail=kernel)
            return compute_ns * CORE_SLOWDOWN_FACTOR
        return compute_ns

    def sync_lost(self, component: str, label: str, time_ns: float) -> bool:
        """Per-operation draw: was this sync event lost (timeout recovery)?"""
        if self._draw(self.plan.sync_loss_rate):
            self.record("sync.lost", component, time_ns, recovered=True, detail=label)
            return True
        return False

    def core_hang(self, component: str, time_ns: float = 0.0) -> bool:
        """Functional-core hook: should this program hang (raises upstream)?"""
        if self._draw(self.plan.core_hang_rate):
            self.record("core.hang", component, time_ns, recovered=False)
            return True
        return False

    # -- silent corruption (never raises, never perturbs timing) --------------

    def _silent_core(self) -> int:
        """Attribute one silent fault to a core (plan-pinned or drawn)."""
        cores = self.plan.sdc_cores
        if cores:
            return cores[self._rng.randrange(len(cores))] if len(cores) > 1 else cores[0]
        return self._rng.randrange(4)

    def _silent(self, rate: float, kind: str, component: str, time_ns: float, detail: str) -> bool:
        if not self._draw(rate):
            return False
        core = self._silent_core()
        self.record(
            kind, component, time_ns, recovered=False,
            detail=f"core{core}: mantissa {detail}".rstrip(),
            detected=False,
        )
        return True

    def silent_compute(self, kernel: str, group: str, time_ns: float) -> bool:
        """Per-kernel draw: did a defective core silently corrupt this
        kernel's output? Timing is untouched and nothing raises — the
        ``detected=False`` record is the only trace until a screen,
        checksum or audit catches it."""
        return self._silent(
            self.plan.sdc_gemm_rate, "sdc.compute", group, time_ns, kernel
        )

    def silent_dma(self, engine: str, label: str, time_ns: float) -> bool:
        """Per-transaction draw: corruption the DMA CRC *missed*."""
        return self._silent(
            self.plan.sdc_dma_rate, "sdc.dma", engine, time_ns, label
        )

    def silent_sparse(self, component: str, label: str, time_ns: float) -> bool:
        """Per-decompression draw: the sparse codec emitted wrong values."""
        return self._silent(
            self.plan.sdc_sparse_rate, "sdc.sparse", component, time_ns, label
        )
