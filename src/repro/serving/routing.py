"""Fleet routing fast path: O(log N) replica selection and bounded depth.

:class:`~repro.serving.fleet.FleetManager` routes every request to the
least-loaded active replica with the deterministic tie-break
``(max(free_at, now), index)`` and schedules repair probes by
``(repair_due_ns, index)``.  The original implementation rescans the full
replica list per event — O(N) per request — which caps practical fleet
size around a few hundred devices.  This module provides two
interchangeable routers behind one interface:

- :class:`ReferenceRouter` — the pinned original O(N) scans, kept
  byte-for-byte equivalent to the historical behavior.  This is the
  semantic oracle: every fast-path change must replay identically
  through it (``tests/serving/test_routing.py``).
- :class:`HeapRouter` — lazy-deletion heaps (per-entry version counters)
  keyed by the exact same tie-breaks, giving O(log N) per event.  The
  selection it makes is *provably identical* to the reference scan for
  every query the fleet issues, so whole-run reports are byte-identical.

The fleet always builds a :class:`HeapRouter`; the equivalence tests
substitute :class:`ReferenceRouter` by patching
``repro.serving.fleet.HeapRouter``.

Preference order.  Serving traffic goes through :meth:`FleetRouter.route`,
which layers the fleet's optional features over ``pick`` as exclusion
sets: ``parked`` replicas (powered off by the fleet power governor) are
always excluded, like a failed hedge target; ``suspected`` (silent
corruption, :mod:`repro.serving.sdc`) and ``avoid`` (power-throttled)
replicas are soft.  ``route`` tries ``pick`` with the soft set
``suspected | avoid``, then ``suspected``, then ``avoid``, then nothing,
skipping tiers whose sets are empty, and returns the first hit — a fleet
where every replica is suspect or throttled still serves.

Heap layout.  Active replicas live in two heaps anchored to a monotone
*routing clock* (the last trace arrival the fleet advanced to):

- ``idle``  — replicas with ``free_at <= clock``, keyed by ``index``.
  For these the routing key collapses to ``(now, index)``, so the
  lowest index wins — exactly the reference tie-break.
- ``busy``  — replicas with ``free_at > clock``, keyed by
  ``(free_at, index)``.

Hedged re-dispatches query at a failure time *past* the clock without
advancing it (the clock only moves at trace arrivals, which the fleet
validates as non-decreasing).  ``pick`` therefore temporarily sets aside
busy entries already free at the query time, competes them on index with
the idle pool, and restores them — the clock's busy/idle split is never
corrupted by an out-of-band query.

Every mutation of a replica's ``status``/``free_at``/``repair_due_ns``
must be followed by :meth:`FleetRouter.update`; stale heap entries are
recognized by a per-replica version counter and dropped on pop.

:class:`Backlog` is the serving layers' one queue-depth ledger: heaps
of admitted finish times, per tenant for the flat
``ras.queue_depth_limit`` door and per SLO class for the admission
controller. A depth query at ``now`` counts the finishes strictly after
``now``. Both serving layers query at trace arrivals, which
:func:`~repro.serving.workload.validate_trace` holds non-decreasing, so a
finish at or before ``now`` can never count again and is popped: memory
stays bounded by the in-flight depth instead of the trace length.
"""

from __future__ import annotations

from enum import Enum
from heapq import heappop, heappush

__all__ = [
    "Backlog",
    "FleetRouter",
    "HeapRouter",
    "ReferenceRouter",
    "ReplicaStatus",
]


class ReplicaStatus(str, Enum):
    """Lifecycle state of one fleet replica (see docs/robustness.md)."""

    ACTIVE = "active"
    """In the routing pool, taking traffic."""
    STANDBY = "standby"
    """Healthy hot spare, promoted when an active replica quarantines."""
    QUARANTINED = "quarantined"
    """Drained after consecutive fatal outcomes; repair in progress."""
    RETIRED = "retired"
    """Failed ``max_repair_attempts`` probes; permanently out."""


class FleetRouter:
    """Replica-selection state machine shared by both implementations.

    The fleet calls :meth:`rebuild` once per run (after its reset),
    :meth:`advance` once per trace arrival, and :meth:`update` after any
    replica mutation; every query below must return exactly what the
    reference O(N) scan would. The fleet sets the three preference sets
    (replica indexes) :meth:`route` reads.
    """

    name = "base"
    parked: frozenset[int] = frozenset()
    """Replicas the power budget cannot power: never routed to."""
    avoid: frozenset[int] = frozenset()
    """Replicas throttled past the governor's headroom threshold."""
    suspected: frozenset[int] = frozenset()
    """Replicas with an open silent-corruption detection."""

    def rebuild(self, replicas: list) -> None:
        raise NotImplementedError

    def advance(self, now: float) -> None:
        """Move the routing clock to ``now`` (a trace arrival)."""

    def update(self, replica) -> None:
        """Re-sync one replica after a status/free_at/repair_due change."""

    def pick(self, now: float, excluded=frozenset()):
        """Least-loaded active replica at ``now``: the unique minimizer of
        ``(max(free_at, now), index)`` outside ``excluded`` (a set of
        replica indexes), or ``None`` when no candidate exists."""
        raise NotImplementedError

    def route(self, now: float, excluded=frozenset()):
        """:meth:`pick` in the fleet's preference order (module docstring):
        never a parked replica, unsuspected and unthrottled ones first."""
        hard = excluded | self.parked if self.parked else excluded
        suspected, avoid = self.suspected, self.avoid
        if suspected or avoid:
            if suspected and avoid:
                tiers = (suspected | avoid, suspected, avoid)
            else:
                tiers = (suspected or avoid,)
            for soft in tiers:
                choice = self.pick(now, hard | soft)
                if choice is not None:
                    return choice
        return self.pick(now, hard)

    def earliest_start(self, now: float) -> float:
        """``min(max(free_at, now))`` over active replicas (>= 1 active).
        Ignores the preference sets: the admission wait prediction sees
        the whole active pool."""
        raise NotImplementedError

    def active_count(self) -> int:
        raise NotImplementedError

    def routable_count(self) -> int:
        """Active replicas that are not parked: those that can take
        traffic at all."""
        active = self.active_count()
        if active and self.parked:
            active -= sum(
                1 for index in self.parked
                if self._replicas[index].status is ReplicaStatus.ACTIVE
            )
        return active

    def standby(self):
        """Lowest-index standby replica, or ``None``."""
        raise NotImplementedError

    def drain_victim(self):
        """Highest-index active replica (autoscale drain), or ``None``."""
        raise NotImplementedError

    def due_repair(self, now: float | None = None):
        """Earliest ``(repair_due_ns, index)`` quarantined replica with a
        scheduled probe; bounded by ``due <= now`` unless ``now`` is
        ``None``.  Returns ``None`` when nothing qualifies.  The caller
        must probe the returned replica and :meth:`update` it."""
        raise NotImplementedError


class ReferenceRouter(FleetRouter):
    """The pinned original O(N) scans — the semantic oracle.

    Do not optimize this class: its value is being obviously identical
    to the historical ``min()``/list-scan routing so the heap path can
    be byte-compared against it.
    """

    name = "reference"

    def rebuild(self, replicas: list) -> None:
        self._replicas = replicas

    def _active(self) -> list:
        return [
            replica for replica in self._replicas
            if replica.status is ReplicaStatus.ACTIVE
        ]

    def pick(self, now: float, excluded=frozenset()):
        candidates = [
            replica for replica in self._active()
            if replica.index not in excluded
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (max(r.free_at, now), r.index),
        )

    def earliest_start(self, now: float) -> float:
        return min(
            max(replica.free_at, now) for replica in self._active()
        )

    def active_count(self) -> int:
        return len(self._active())

    def standby(self):
        for replica in self._replicas:
            if replica.status is ReplicaStatus.STANDBY:
                return replica
        return None

    def drain_victim(self):
        active = self._active()
        if not active:
            return None
        return max(active, key=lambda replica: replica.index)

    def due_repair(self, now: float | None = None):
        due = [
            replica for replica in self._replicas
            if replica.status is ReplicaStatus.QUARANTINED
            and replica.repair_due_ns is not None
            and (now is None or replica.repair_due_ns <= now)
        ]
        if not due:
            return None
        return min(due, key=lambda r: (r.repair_due_ns, r.index))


class HeapRouter(FleetRouter):
    """Lazy-deletion heaps with the reference tie-breaks — O(log N)."""

    name = "heap"

    def rebuild(self, replicas: list) -> None:
        self._replicas = replicas
        n = len(replicas)
        self._ver = [0] * n
        self._status: list[ReplicaStatus | None] = [None] * n
        self._clock = 0.0
        self._idle: list[tuple[int, int]] = []
        self._busy: list[tuple[float, int, int]] = []
        self._standby_heap: list[tuple[int, int]] = []
        # Drain victims: ``-index`` pushed each time a replica turns
        # active, valid while it stays active (a free_at bump keeps it).
        self._active_hi: list[int] = []
        self._repair: list[tuple[float, int, int]] = []
        self._n_active = 0
        for replica in replicas:
            self.update(replica)

    def update(self, replica) -> None:
        index = replica.index
        self._ver[index] += 1
        version = self._ver[index]
        status = replica.status
        previous = self._status[index]
        if previous is not status:
            if previous is ReplicaStatus.ACTIVE:
                self._n_active -= 1
            if status is ReplicaStatus.ACTIVE:
                self._n_active += 1
                heappush(self._active_hi, -index)
            self._status[index] = status
        if status is ReplicaStatus.ACTIVE:
            if replica.free_at > self._clock:
                heappush(self._busy, (replica.free_at, index, version))
            else:
                heappush(self._idle, (index, version))
        elif status is ReplicaStatus.STANDBY:
            heappush(self._standby_heap, (index, version))
        elif (
            status is ReplicaStatus.QUARANTINED
            and replica.repair_due_ns is not None
        ):
            heappush(
                self._repair, (replica.repair_due_ns, index, version)
            )

    def _live(self, index: int, version: int, status: ReplicaStatus) -> bool:
        return version == self._ver[index] and self._status[index] is status

    def advance(self, now: float) -> None:
        if now < self._clock:
            return
        self._clock = now
        busy, idle = self._busy, self._idle
        versions, statuses = self._ver, self._status
        active = ReplicaStatus.ACTIVE
        while busy and busy[0][0] <= now:
            _free_at, index, version = heappop(busy)
            if version == versions[index] and statuses[index] is active:
                heappush(idle, (index, version))

    def pick(self, now: float, excluded=frozenset()):
        busy, idle = self._busy, self._idle
        versions, statuses = self._ver, self._status
        active = ReplicaStatus.ACTIVE
        choice: int | None = None
        # Busy entries already free at `now` (only possible for hedge
        # queries past the clock): set them aside, compete on index.
        ready_aside: list[tuple[float, int, int]] = []
        while busy and busy[0][0] <= now:
            entry = heappop(busy)
            index = entry[1]
            if entry[2] == versions[index] and statuses[index] is active:
                ready_aside.append(entry)
                if index not in excluded and (
                    choice is None or index < choice
                ):
                    choice = index
        idle_aside: list[tuple[int, int]] = []
        while idle:
            index, version = idle[0]
            if version != versions[index] or statuses[index] is not active:
                heappop(idle)
            elif index in excluded:
                idle_aside.append(heappop(idle))
            else:
                # Everyone here starts at `now`; the reference key
                # collapses to (now, index), so the lowest index wins.
                if choice is None or index < choice:
                    choice = index
                break
        if choice is None:
            busy_aside: list[tuple[float, int, int]] = []
            while busy:
                _free_at, index, version = busy[0]
                if version != versions[index] or statuses[index] is not active:
                    heappop(busy)
                elif index in excluded:
                    busy_aside.append(heappop(busy))
                else:
                    choice = index
                    break
            for entry in busy_aside:
                heappush(busy, entry)
        for entry in ready_aside:
            heappush(busy, entry)
        for entry in idle_aside:
            heappush(idle, entry)
        return self._replicas[choice] if choice is not None else None

    def earliest_start(self, now: float) -> float:
        versions, statuses = self._ver, self._status
        active = ReplicaStatus.ACTIVE
        idle = self._idle
        while idle:
            index, version = idle[0]
            if version == versions[index] and statuses[index] is active:
                return now
            heappop(idle)
        busy = self._busy
        while busy:
            free_at, index, version = busy[0]
            if version == versions[index] and statuses[index] is active:
                # If any active replica is free by `now` the minimum is
                # `now`; the busy top has the smallest free_at, so the
                # max() collapses both cases.
                return max(free_at, now)
            heappop(busy)
        return now

    def active_count(self) -> int:
        return self._n_active

    def standby(self):
        heap = self._standby_heap
        while heap:
            index, version = heap[0]
            if self._live(index, version, ReplicaStatus.STANDBY):
                return self._replicas[index]
            heappop(heap)
        return None

    def drain_victim(self):
        heap = self._active_hi
        while heap:
            index = -heap[0]
            if self._status[index] is ReplicaStatus.ACTIVE:
                return self._replicas[index]
            heappop(heap)
        return None

    def due_repair(self, now: float | None = None):
        heap = self._repair
        while heap:
            due, index, version = heap[0]
            if not self._live(index, version, ReplicaStatus.QUARANTINED):
                heappop(heap)
                continue
            if now is not None and due > now:
                return None
            # Physically consumed: the caller probes the replica and the
            # follow-up update() pushes whatever schedule comes next.
            heappop(heap)
            return self._replicas[index]
        return None


class Backlog:
    """Finish times of admitted requests, per tenant and per SLO class.

    Tenant heaps feed the flat ``ras.queue_depth_limit`` door
    (:meth:`full`) and class heaps the admission controller
    (:meth:`classes_at`); each side is recorded only when its reader
    exists. An attached controller (``admission``) replaces the flat
    door, so at most one side is ever recorded. Both readers drop every
    finish at or before their query time, which must be non-decreasing
    (module docstring).
    """

    __slots__ = ("tenants", "classes", "_limit", "_by_class")

    def __init__(self, tenants, ras, admission) -> None:
        self.tenants: dict[str, list[float]] = {name: [] for name in tenants}
        self.classes: dict[str, list[float]] = {}
        # The flat limit, or None when there is no flat door.
        self._limit = ras.queue_depth_limit if admission is None else None
        self._by_class = admission is not None

    def push(self, batch, finish: float) -> None:
        """Record one served batch finishing at ``finish``. Both serving
        layers batch only same-(tenant, class) requests, so the head's
        tenant and class stand for every member."""
        head = batch[0]
        if self._limit is not None:
            heap = self.tenants[head.tenant]
        elif self._by_class:
            heap = self.classes.get(head.slo_class)
            if heap is None:
                heap = self.classes[head.slo_class] = []
        else:
            return
        for _ in batch:
            heappush(heap, finish)

    def full(self, tenant: str, now: float) -> bool:
        """Flat admission: is ``tenant``'s queued-or-in-flight depth at
        ``now`` at ``ras.queue_depth_limit``? Always False without a flat
        limit, or when an admission controller replaces it."""
        limit = self._limit
        if limit is None:
            return False
        heap = self.tenants[tenant]
        while heap and heap[0] <= now:
            heappop(heap)
        return len(heap) >= limit

    def classes_at(self, now: float) -> dict[str, list[float]]:
        """``classes`` with every finish at or before ``now`` dropped, so
        an entry's length is its class's queued-or-in-flight depth at
        ``now``."""
        for heap in self.classes.values():
            while heap and heap[0] <= now:
                heappop(heap)
        return self.classes
