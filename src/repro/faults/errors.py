"""Typed fault exceptions for the RAS layer.

The hierarchy mirrors how a datacenter operator triages an accelerator
fault: *transient* faults (a corrupted DMA transaction, an uncorrectable
ECC word in a data buffer, a hung core reset by the watchdog) are
recoverable by replaying the launch, so :meth:`Device.launch` retries
them with bounded backoff; *permanent* faults (a dead processing group)
are not, and the serving layer's circuit breaker routes around them
instead.
"""

from __future__ import annotations

from repro.core.errors import ReproRuntimeError


class HardwareFault(ReproRuntimeError):
    """Base class for injected hardware faults."""


class TransientFault(HardwareFault):
    """A fault that a retry of the enclosing launch can recover from."""


class PermanentFault(HardwareFault):
    """A fault that persists across retries (e.g. a dead group)."""


class DmaTransferFault(TransientFault):
    """A DMA transaction aborted, or stayed corrupt after bounded replays."""


class UncorrectableEccError(TransientFault):
    """Multi-bit ECC error in an on-chip buffer; data must be reloaded."""


class CoreHangFault(TransientFault):
    """A compute core stopped retiring packets; the watchdog reset it."""


class SyncTimeoutError(TransientFault):
    """A synchronization event was lost and recovered only by timeout."""


class GroupFailedError(PermanentFault):
    """A processing group was declared dead by the health tracker."""


class SilentCorruptionFault(HardwareFault):
    """A datapath returned wrong numbers with no error signal.

    The injection side never raises these — silent corruption is, by
    definition, invisible at the moment it happens (the launch completes,
    CRC and ECC see nothing). Instances are raised only by *detectors*:
    the ABFT-checked GEMM, golden-vector screens and dual-execution
    audits (docs/robustness.md, "Silent data corruption")."""


class MantissaBitFlipFault(SilentCorruptionFault):
    """A defective core flipped a mantissa bit of one result element."""


class DeadlineExceededError(ReproRuntimeError):
    """A launch finished (after retries) past its per-request deadline."""
