"""Synchronization primitives layered on the simulation kernel.

These are the building blocks the :class:`~repro.sync.engine.SyncEngine`
composes into the paper's 1-to-1 / 1-to-N / N-to-1 / N-to-M patterns:
counting semaphores and arrival barriers, both usable from simulation
processes.
"""

from __future__ import annotations

from repro.sim.kernel import Event, SimulationError, Simulator


class Semaphore:
    """Counting semaphore: ``signal`` releases one ``wait`` in FIFO order."""

    def __init__(self, sim: Simulator, name: str = "sem", initial: int = 0) -> None:
        if initial < 0:
            raise ValueError(f"negative initial count {initial}")
        self.sim = sim
        self.name = name
        self.count = initial
        self._waiters: list[Event] = []
        self.signals = 0
        self.waits = 0

    def signal(self, amount: int = 1) -> None:
        if amount < 1:
            raise ValueError(f"signal amount must be >= 1, got {amount}")
        self.signals += amount
        for _ in range(amount):
            if self._waiters:
                self._waiters.pop(0).succeed()
            else:
                self.count += 1

    def wait(self) -> Event:
        """Returns an event to yield on; fires when a unit is available."""
        self.waits += 1
        event = self.sim.event(name=f"{self.name}.wait")
        if self.count > 0:
            self.count -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event


class Barrier:
    """N-party arrival barrier, reusable across generations."""

    def __init__(self, sim: Simulator, parties: int, name: str = "barrier") -> None:
        if parties < 1:
            raise ValueError(f"barrier needs >= 1 party, got {parties}")
        self.sim = sim
        self.parties = parties
        self.name = name
        self.generation = 0
        self._arrived = 0
        #: this generation's release event, made by its first arrival (most
        #: barriers live for one generation: no event for the next)
        self._gate: Event | None = None

    def arrive(self) -> Event:
        """Register arrival; yield the returned event to block until release."""
        self._arrived += 1
        if self._arrived > self.parties:
            raise SimulationError(
                f"{self.name}: {self._arrived} arrivals exceed {self.parties} parties"
            )
        gate = self._gate
        if gate is None:
            gate = self._gate = self.sim.event(
                name=f"{self.name}.gen{self.generation}"
            )
        if self._arrived == self.parties:
            self.generation += 1
            self._arrived = 0
            self._gate = None
            gate.succeed()
        return gate
