"""Fault injection + RAS primitives for the simulated DTU 2.0."""

from repro.faults.errors import (
    CoreHangFault,
    DeadlineExceededError,
    DmaTransferFault,
    GroupFailedError,
    HardwareFault,
    MantissaBitFlipFault,
    PermanentFault,
    SilentCorruptionFault,
    SyncTimeoutError,
    TransientFault,
    UncorrectableEccError,
)
from repro.faults.injector import FaultInjector, FaultRecord
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule, StormPhase
from repro.faults.silent import CorruptionEvent, SilentCorruptor

__all__ = [
    "CoreHangFault",
    "CorruptionEvent",
    "DeadlineExceededError",
    "DmaTransferFault",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "FaultSchedule",
    "MantissaBitFlipFault",
    "SilentCorruptionFault",
    "SilentCorruptor",
    "StormPhase",
    "GroupFailedError",
    "HardwareFault",
    "PermanentFault",
    "SyncTimeoutError",
    "TransientFault",
    "UncorrectableEccError",
]
