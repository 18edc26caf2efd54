"""Discrete-event simulation kernel.

This module is the substrate every timed model in the repository runs on: the
DTU 2.0 performance simulator (compute cores, DMA engines, synchronization
engine, power management) schedules its work as *processes* — Python
generators that yield :class:`Timeout` or :class:`Event` objects — on a
shared :class:`Simulator`.

The design is a deliberately small subset of the SimPy programming model so
that models stay readable:

>>> sim = Simulator()
>>> log = []
>>> def worker(sim):
...     yield Timeout(10.0)
...     log.append(sim.now)
>>> _ = sim.spawn(worker(sim))
>>> sim.run()
>>> log
[10.0]

Time is a float; by repository convention it is **nanoseconds**.

Engine contract (docs/sim-internals.md)
---------------------------------------

Two interchangeable event cores implement the same scheduling contract:

- :class:`Simulator` — the default fast engine: same-timestamp wakeups are
  drained in one batch (the clock is written once per distinct time, not
  once per event), and :class:`AllOf` joins use counting gates instead
  of closure chains;
- :class:`~repro.sim.kernel_reference.ReferenceSimulator` — the pinned
  original loop (one pop + one resume per event), kept as the
  bit-reproducibility anchor.

Both order the event queue by ``(time, sequence)`` — ``sequence`` is a
per-simulator monotonic counter, so ties at one timestamp resolve in
scheduling order and **never** by object identity. Any workload must
produce byte-identical traces and clocks on both engines. Production
always builds :class:`Simulator`; the equivalence tests pass a
``ReferenceSimulator`` in explicitly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; :meth:`succeed` fires it, resuming every
    waiting process. Firing twice is an error — events are single-use, like
    the hardware semaphores they usually model.
    """

    __slots__ = ("sim", "name", "_fired", "_value", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._fired = False
        self._value = None
        self._waiters: list["Process"] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self):
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired yet")
        return self._value

    def succeed(self, value=None) -> None:
        """Fire the event, waking every process currently waiting on it."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            sim = self.sim
            queue = sim._queue
            counter = sim._counter
            now = sim.now
            for waiter in waiters:
                if waiter.__class__ is _AllOfGate:
                    # A join only counts: it counts down now, and queues
                    # its process once the last event it waits on fired.
                    waiter._resume(value)
                else:
                    heapq.heappush(queue, (now, next(counter), waiter, value))

    #: timer events sit directly in the queue; dispatching one fires it
    _resume = succeed

    def _add_waiter(self, process: "Process") -> None:
        if self._fired:
            self.sim._schedule(self.sim.now, process, self._value)
        else:
            self._waiters.append(process)


class Timeout:
    """Yielded by a process to advance simulated time by ``delay``."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        if delay != delay:
            raise ValueError("NaN timeout: a process would wake at the current time")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout(delay={self.delay})"


class AllOf:
    """Composite wait: resumes the process once every child event has fired."""

    __slots__ = ("events",)

    def __init__(self, events) -> None:
        self.events = list(events)

    def _bind(self, sim: "Simulator", process: "Process") -> None:
        pending = [event for event in self.events if not event._fired]
        if not pending:
            sim._schedule(sim.now, process, [event.value for event in self.events])
            return
        gate = _AllOfGate(sim, process, self.events, len(pending))
        for event in pending:
            event._waiters.append(gate)


class _AllOfGate:
    """Counting join: one shared waiter object per :class:`AllOf`.

    Sits directly in each pending event's waiter list. An event that
    fires counts its gates down at once (a count has no effect of its
    own, so it needs no turn in the queue); the gate queues its process
    when the last event it waits on has fired.
    """

    __slots__ = ("sim", "process", "events", "remaining")

    def __init__(self, sim, process, events, remaining) -> None:
        self.sim = sim
        self.process = process
        self.events = events
        self.remaining = remaining

    def _resume(self, _value) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            sim = self.sim
            heapq.heappush(
                sim._queue,
                (
                    sim.now,
                    next(sim._counter),
                    self.process,
                    [event._value for event in self.events],
                ),
            )


class Process:
    """A running generator inside the simulator.

    The wrapped generator may yield:

    - :class:`Timeout` — sleep for simulated time,
    - :class:`Event` — block until the event fires,
    - :class:`AllOf` — block until several events fire,
    - another :class:`Process` — block until it terminates.

    When the generator returns, :attr:`done_event` fires with the generator's
    return value, so processes compose like futures.
    """

    __slots__ = ("sim", "generator", "pid", "_name", "done_event")

    _ids = itertools.count()

    def __init__(self, sim: "Simulator", generator, name: str = "") -> None:
        self.sim = sim
        self.generator = generator
        self.pid = next(Process._ids)
        self._name = name
        self.done_event = Event(sim, name="")

    @property
    def name(self) -> str:
        return self._name or f"process-{self.pid}"

    @property
    def done(self) -> bool:
        return self.done_event._fired

    def _resume(self, value) -> None:
        # ``send(None)`` on a fresh generator is ``next()`` — the first
        # wakeup (scheduled by spawn) primes the coroutine, every later one
        # delivers the awaited value. One code path, zero flags.
        try:
            yielded = self.generator.send(value)
        except StopIteration as stop:
            self.done_event.succeed(stop.value)
            return
        kind = yielded.__class__
        if kind is Timeout:
            # The overwhelmingly common yield: inline the schedule. The
            # deadline cannot be in the past (delay >= 0 by construction).
            sim = self.sim
            heapq.heappush(
                sim._queue,
                (sim.now + yielded.delay, next(sim._counter), self, None),
            )
        elif kind is AllOf:
            yielded._bind(self.sim, self)
        elif kind is Event:
            yielded._add_waiter(self)
        else:
            self._wait_on(yielded)

    def _wait_on(self, yielded) -> None:
        sim = self.sim
        if isinstance(yielded, Timeout):
            sim._schedule(sim.now + yielded.delay, self, None)
        elif isinstance(yielded, Event):
            yielded._add_waiter(self)
        elif isinstance(yielded, Process):
            yielded.done_event._add_waiter(self)
        elif isinstance(yielded, AllOf):
            yielded._bind(sim, self)
        else:
            raise SimulationError(
                f"{self.name} yielded unsupported object {yielded!r}"
            )


class Simulator:
    """Event queue + clock. Deterministic: ties break by insertion order.

    This is the fast engine: the queue is a min-heap of
    ``(time, sequence, target, value)`` tuples (comparison never reaches
    ``target`` — ``sequence`` is unique per simulator), and the drain loop
    batches every wakeup sharing one timestamp into a single clock
    advance. Dispatch accounting (:attr:`events_dispatched`,
    :attr:`time_steps`) feeds the ``repro profile`` engine table.
    """

    engine = "fast"

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list = []
        self._counter = itertools.count()
        #: wakeups dispatched over this simulator's lifetime
        self.events_dispatched: int = 0
        #: distinct timestamps the clock stepped through while dispatching
        self.time_steps: int = 0

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def spawn(self, generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        process = Process(self, generator, name=name)
        heapq.heappush(self._queue, (self.now, next(self._counter), process, None))
        return process

    def timer(self, delay: float, value=None, name: str = "") -> Event:
        """An event that fires by itself ``delay`` ns from now.

        Cheaper than spawning a sleep-only process (no generator, no
        Process object, one queue entry) for pure-delay modelling.
        """
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay}")
        if delay != delay:
            raise SimulationError("NaN timer delay: it would fire at the current time")
        event = Event(self, name=name or "timer")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._counter), event, value)
        )
        return event

    def _schedule(self, when: float, target, value) -> None:
        if when < self.now:
            raise SimulationError(f"scheduling into the past: {when} < {self.now}")
        heapq.heappush(self._queue, (when, next(self._counter), target, value))

    def run(self, until: float | None = None) -> float:
        """Drain the event queue; returns the final simulated time.

        ``until`` caps simulated time: events scheduled later stay queued and
        the clock stops exactly at ``until``.
        """
        queue = self._queue
        pop = heapq.heappop
        dispatched = 0
        steps = 0
        now = self.now
        try:
            if until is None:
                while queue:
                    when, _seq, target, value = pop(queue)
                    if when > now:
                        self.now = now = when
                        steps += 1
                    dispatched += 1
                    target._resume(value)
            else:
                while queue:
                    when = queue[0][0]
                    if when > until:
                        self.now = until
                        return until
                    when, _seq, target, value = pop(queue)
                    if when > now:
                        self.now = now = when
                        steps += 1
                    dispatched += 1
                    target._resume(value)
                self.now = max(self.now, until)
        finally:
            self.events_dispatched += dispatched
            self.time_steps += steps
        return self.now


@dataclass
class Resource:
    """A counted resource (e.g. an L2 port or a DMA channel).

    Processes acquire with :meth:`request` (yielding the returned event) and
    must release exactly once. FIFO granting keeps the model deterministic.
    """

    sim: Simulator
    capacity: int
    name: str = "resource"
    _in_use: int = 0
    _wait_queue: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"{self.name}: capacity must be >= 1")
        # one interned grant name: request() is on the DMA hot path
        self._grant_name = f"{self.name}.grant"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._wait_queue)

    def try_acquire(self) -> bool:
        """Take a unit if one is free right now (no event); else False.

        Must be released like a granted :meth:`request`. A caller that
        gets False and still wants the unit calls :meth:`request` and
        waits in FIFO order.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def request(self) -> Event:
        event = Event(self.sim, name=self._grant_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._wait_queue.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without request")
        if self._wait_queue:
            grant = self._wait_queue.pop(0)
            grant.succeed()
        else:
            self._in_use -= 1
