"""Synchronization engine (paper §IV-D).

"each processing group integrates a dedicated synchronization engine. It
supports 1-to-1, 1-to-N, N-to-1, and N-to-M synchronization patterns, inside
or across processing groups."

Every operation costs the engine's base latency; operations that cross
processing groups pay a multiplier, reflecting the longer on-chip route.
The engine exposes the four patterns directly:

- ``signal``/``wait_for``: 1-to-1 producer/consumer handoff,
- ``notify_all``: 1-to-N release of N waiters,
- ``join``: N-to-1 aggregation (fires after N signals),
- ``rendezvous``: N-to-M barrier between producer and consumer sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.kernel import Event, Simulator, Timeout
from repro.sync.events import Barrier, Semaphore


@dataclass
class SyncStats:
    """Operation counts per pattern."""

    one_to_one: int = 0
    one_to_n: int = 0
    n_to_one: int = 0
    n_to_m: int = 0
    lost_events: int = 0
    """Sync events lost to an injected fault, recovered by timeout."""

    @property
    def total(self) -> int:
        return self.one_to_one + self.one_to_n + self.n_to_one + self.n_to_m


@dataclass
class SyncEngine:
    """One processing group's synchronization engine.

    With a :class:`~repro.faults.FaultInjector` attached (``faults``),
    each operation may lose its hardware event; the engine recovers by
    timeout — the operation succeeds after an extra ``sync_timeout_ns``
    from the fault plan. No injector means the timing path is untouched.
    """

    sim: Simulator
    group_id: int = 0
    latency_ns: float = 40.0
    cross_group_multiplier: float = 2.0
    stats: SyncStats = field(default_factory=SyncStats)
    faults: object | None = None
    _semaphores: dict[str, Semaphore] = field(default_factory=dict)
    _joins: dict[str, tuple[int, list[int], Event]] = field(default_factory=dict)

    def _delay(self, cross_group: bool) -> float:
        return self.latency_ns * (self.cross_group_multiplier if cross_group else 1.0)

    def _operate(self, label: str, cross_group: bool):
        """Process: one engine operation — base latency, plus the timeout
        recovery path when the injector loses this operation's event."""
        yield Timeout(self._delay(cross_group))
        if self.faults is not None and self.faults.sync_lost(
            f"sync.g{self.group_id}", label, self.sim.now
        ):
            self.stats.lost_events += 1
            yield Timeout(self.faults.plan.sync_timeout_ns)

    def semaphore(self, name: str) -> Semaphore:
        if name not in self._semaphores:
            self._semaphores[name] = Semaphore(self.sim, name=name)
        return self._semaphores[name]

    # -- 1-to-1 -----------------------------------------------------------

    def signal(self, name: str, cross_group: bool = False):
        """Process: producer side of a 1-to-1 handoff."""
        yield from self._operate(name, cross_group)
        self.semaphore(name).signal()
        self.stats.one_to_one += 1

    def wait_for(self, name: str):
        """Process: consumer side of a 1-to-1 handoff."""
        yield self.semaphore(name).wait()

    # -- 1-to-N -------------------------------------------------------------

    def notify_all(self, name: str, waiters: int, cross_group: bool = False):
        """Process: release ``waiters`` consumers with one operation."""
        if waiters < 1:
            raise ValueError(f"notify_all needs >= 1 waiter, got {waiters}")
        yield from self._operate(name, cross_group)
        self.semaphore(name).signal(waiters)
        self.stats.one_to_n += 1

    # -- N-to-1 -------------------------------------------------------------

    def join(self, name: str, parties: int) -> Event:
        """Event that fires once ``parties`` processes have checked in."""
        if name not in self._joins:
            event = self.sim.event(name=f"join.{name}")
            self._joins[name] = (parties, [0], event)
        stored_parties, _count, event = self._joins[name]
        if stored_parties != parties:
            raise ValueError(
                f"join {name!r} created for {stored_parties} parties, "
                f"got {parties}"
            )
        return event

    def check_in(self, name: str, parties: int, cross_group: bool = False):
        """Process: one party arriving at an N-to-1 join."""
        event = self.join(name, parties)
        yield from self._operate(name, cross_group)
        _parties, count, _event = self._joins[name]
        count[0] += 1
        if count[0] == parties:
            event.succeed()
            del self._joins[name]
            self.stats.n_to_one += 1

    # -- N-to-M ------------------------------------------------------------

    def rendezvous(self, parties: int, name: str = "rendezvous") -> Barrier:
        """Barrier releasing all M consumers once all N producers arrive.

        N-to-M in the paper's terms: create with ``parties = N + M`` and have
        both sides arrive; or use producer-side ``check_in`` + consumer-side
        ``join`` for asymmetric patterns.
        """
        self.stats.n_to_m += 1
        return Barrier(self.sim, parties=parties, name=f"{name}.g{self.group_id}")

    def arrive(self, barrier: Barrier, cross_group: bool = False):
        """Process: arrive at a rendezvous barrier and block for release."""
        yield from self._operate(barrier.name, cross_group)
        gate = barrier.arrive()
        if barrier.parties > 1:
            # The last of several arrivals still waits its turn: the
            # parties it releases resume first, in arrival order.
            yield gate
