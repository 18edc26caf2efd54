"""Pinned reference event core for the discrete-event simulator.

:class:`ReferenceSimulator` is the original, unoptimized event loop —
one ``heapq`` pop and one coroutine resume per event, exactly as the
engine shipped before the vectorized fast path landed in
:mod:`repro.sim.kernel`. It is kept the way ``gemm_reference`` anchors
the matrix engine's fast path: the fast :class:`~repro.sim.kernel.Simulator`
must produce **byte-identical traces and clocks** against this kernel on
any workload, and ``tests/sim/test_engine_equivalence.py`` enforces that
over seeded random process soups and full executor launches.

The reference shares the waitable data types (:class:`~repro.sim.kernel.Event`,
:class:`~repro.sim.kernel.Timeout`, :class:`~repro.sim.kernel.AllOf`,
:class:`~repro.sim.kernel.Process`, :class:`~repro.sim.kernel.Resource`)
with the fast engine — what is pinned here is the *scheduling contract*:

- the event queue is a min-heap ordered by ``(time, sequence)`` where
  ``sequence`` is a per-simulator monotonic counter — ties at one
  timestamp resolve in scheduling order, never by object identity;
- every wakeup is dispatched one at a time: pop the head, set ``now``,
  resume the target with its value;
- ``run(until=...)`` stops the clock exactly at ``until`` and leaves
  later entries queued.

docs/sim-internals.md is the prose version of this contract; change the
semantics there first, then in both engines, never in only one.
"""

from __future__ import annotations

import heapq
import itertools

from repro.sim.kernel import Process, SimulationError


class ReferenceSimulator:
    """Event queue + clock, one event per dispatch. Deterministic: ties
    break by insertion order (the per-simulator sequence counter)."""

    #: engines report which core they are so traces can be labelled
    engine = "reference"

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list = []
        self._counter = itertools.count()
        #: events dispatched since construction (observability parity with
        #: the fast engine's dispatch accounting)
        self.events_dispatched: int = 0

    def event(self, name: str = ""):
        from repro.sim.kernel import Event

        return Event(self, name=name)

    def spawn(self, generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        process = Process(self, generator, name=name)
        self._schedule(self.now, process, None)
        return process

    def timer(self, delay: float, value=None, name: str = ""):
        """An event that fires by itself ``delay`` ns from now.

        Mirrors :meth:`repro.sim.kernel.Simulator.timer` so processes
        written against the fast engine run unchanged here.
        """
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay}")
        if delay != delay:
            raise SimulationError("NaN timer delay: it would fire at the current time")
        event = self.event(name=name or "timer")
        self._schedule(self.now + delay, event, value)
        return event

    def _schedule(self, when: float, target, value) -> None:
        if when < self.now:
            raise SimulationError(f"scheduling into the past: {when} < {self.now}")
        heapq.heappush(self._queue, (when, next(self._counter), target, value))

    def run(self, until: float | None = None) -> float:
        """Drain the event queue; returns the final simulated time.

        ``until`` caps simulated time: events scheduled later stay queued
        and the clock stops exactly at ``until``.
        """
        while self._queue:
            when, _seq, target, value = self._queue[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            self.now = when
            self.events_dispatched += 1
            target._resume(value)
        if until is not None:
            self.now = max(self.now, until)
        return self.now
