"""Silent-data-corruption injection: wrong numbers, no error signal.

Real fleets are plagued by *defective cores* and marginal datapaths that
return incorrect results without raising anything — no CRC mismatch, no
ECC event, no watchdog. This module injects exactly that failure mode
into the functional engines:

- :class:`SilentCorruptor` flips a high-order mantissa bit in one
  element of a result array — a GEMM output
  (:meth:`~repro.engines.matrix.MatrixEngine.gemm`), a DMA payload, or a
  sparse-codec decompression — *after* the computation completes, so the
  corrupted launch is indistinguishable from a clean one;
- every corruption is seeded (one ``random.Random`` per corruptor),
  per-device and per-core-attributable, and recorded through the
  attached :class:`~repro.faults.injector.FaultInjector` as a
  ``detected=False`` :class:`~repro.faults.injector.FaultRecord`;
- nothing here ever raises: the typed
  :class:`~repro.faults.errors.SilentCorruptionFault` family is carried
  on :class:`CorruptionEvent` for *detectors* (the ABFT-checked GEMM in
  :mod:`repro.engines.abft`, fleet screens and audits in
  :mod:`repro.serving`) to raise when a checksum or digest disagrees.

Detached contract: a corruptor is opt-in. With none attached (or with
every ``sdc_*_rate`` zero — zero rates consume no randomness), every
consumer is bit-identical to a build without this module.

Injected errors are sized to be *honestly detectable*: mantissa flips
target the high-order mantissa bits (relative error >= ~2^-12), so they
sit well above the checksum reassociation noise the ABFT tolerance must
admit. Sub-tolerance ulp flips are out of scope of the detection pledge
and are documented as such (docs/robustness.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random

import numpy as np

from repro.faults.errors import MantissaBitFlipFault, SilentCorruptionFault
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

__all__ = ["CorruptionEvent", "SilentCorruptor"]

#: Lowest mantissa bit a corruption will flip (of float64's 52): bits
#: 40..51 give relative errors between ~2^-12 and ~2^-1.
_MANTISSA_LOW_BIT = 40
#: Multiplier applied instead when a flip would leave the value
#: unchanged or non-finite (1 + 2**-9: a marginal-datapath error well
#: above checksum rounding noise).
_SCALE_FALLBACK = 1.001953125


@dataclass(frozen=True)
class CorruptionEvent:
    """One silent corruption: where it landed and what it did."""

    site: str
    """Injection site: ``gemm`` / ``dma`` / ``sparse``."""
    core: int
    """Core the corruption is attributed to (defective-core containment
    keys on this)."""
    index: int
    """Flat index of the corrupted element."""
    original: float
    corrupted: float
    fault: SilentCorruptionFault
    """The typed fault a detector raises when it catches this event."""


@dataclass
class SilentCorruptor:
    """Seeded source of silent numeric corruption for one device.

    Attach one to a :class:`~repro.engines.matrix.MatrixEngine` (its
    ``corruptor`` field) or pass it to the sparse codec's ``decompress``.
    Rates come from the same :class:`~repro.faults.plan.FaultPlan` the
    rest of a campaign uses (``sdc_gemm_rate`` / ``sdc_dma_rate`` /
    ``sdc_sparse_rate``); records flow into ``injector`` when one is
    attached so fleet telemetry sees the ``detected=False`` channel.
    """

    plan: FaultPlan
    seed: int = 0
    device: str = ""
    injector: FaultInjector | None = None
    events: list[CorruptionEvent] = field(default_factory=list)
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def undetected(self) -> list[CorruptionEvent]:
        """Events no detector has claimed yet."""
        if self.injector is None:
            return list(self.events)
        pending = {
            record.detail for record in self.injector.silent_records
        }
        return [
            event for event in self.events
            if self._detail(event) in pending
        ]

    def mark_detected(self, event: CorruptionEvent, method: str) -> None:
        """Report a detector catch back to the injector's record ledger."""
        if self.injector is None:
            return
        detail = self._detail(event)
        for record in self.injector.silent_records:
            if record.detail == detail:
                self.injector.mark_detected(record, method)
                return

    @staticmethod
    def _detail(event: CorruptionEvent) -> str:
        return (
            f"core{event.core}: mantissa {event.site}[{event.index}] "
            f"{event.original!r} -> {event.corrupted!r}"
        )

    # -- injection sites -----------------------------------------------------

    def corrupt_gemm(self, result: np.ndarray, time_ns: float = 0.0) -> np.ndarray:
        """Maybe corrupt one element of a GEMM result (in place)."""
        return self._maybe_corrupt(result, self.plan.sdc_gemm_rate, "gemm", time_ns)

    def corrupt_dma(self, payload: np.ndarray, time_ns: float = 0.0) -> np.ndarray:
        """Maybe corrupt one element of a DMA-transferred payload."""
        return self._maybe_corrupt(payload, self.plan.sdc_dma_rate, "dma", time_ns)

    def corrupt_sparse(self, dense: np.ndarray, time_ns: float = 0.0) -> np.ndarray:
        """Maybe corrupt one element of a decompressed dense tensor."""
        return self._maybe_corrupt(dense, self.plan.sdc_sparse_rate, "sparse", time_ns)

    # -- mechanics -----------------------------------------------------------

    def _maybe_corrupt(
        self, array: np.ndarray, rate: float, site: str, time_ns: float
    ) -> np.ndarray:
        # Zero rates consume no randomness: the detached path draws
        # nothing and returns the caller's array object untouched.
        if rate <= 0.0 or self._rng.random() >= rate:
            return array
        flat = array.reshape(-1)
        nonzero = np.flatnonzero(flat)
        if nonzero.size == 0:
            # An all-zero result offers nothing detectable to corrupt
            # above tolerance; the draw fired but no event lands.
            return array
        index = int(nonzero[self._rng.randrange(nonzero.size)])
        original = float(flat[index])
        corrupted = self._flip(original)
        flat[index] = corrupted
        core = self.plan.pick_sdc_core(self._rng)
        event = CorruptionEvent(
            site=site, core=core, index=index,
            original=original, corrupted=corrupted,
            fault=MantissaBitFlipFault(
                f"{self.device or 'device'} core{core}: silent mantissa "
                f"corruption in {site}[{index}]: {original!r} -> {corrupted!r}"
            ),
        )
        self.events.append(event)
        if self.injector is not None:
            self.injector.record(
                f"sdc.{site}", site, time_ns, recovered=False,
                detail=self._detail(event), detected=False,
            )
        return array

    def _flip(self, value: float) -> float:
        bits = int(np.float64(value).view(np.uint64))
        bit = self._rng.randrange(_MANTISSA_LOW_BIT, 52)
        flipped = np.uint64(bits ^ (1 << bit)).view(np.float64)
        result = float(flipped)
        if not np.isfinite(result) or result == value:
            # Keep injected errors finite and real: fall back to scale.
            return value * _SCALE_FALLBACK
        return result
