"""Discrete-event simulation substrate."""

from repro.sim.kernel import (
    AllOf,
    Event,
    Process,
    Resource,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.kernel_reference import ReferenceSimulator
from repro.sim.parallel import ShardError, default_workers, run_sharded
from repro.sim.trace import Interval, Trace

__all__ = [
    "AllOf", "Event", "Interval", "Process", "ReferenceSimulator", "Resource",
    "ShardError", "SimulationError", "Simulator", "Timeout", "Trace",
    "default_workers", "run_sharded",
]
