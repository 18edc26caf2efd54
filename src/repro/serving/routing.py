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

:class:`PrunedFinishes` replaces the unbounded sorted ``finishes`` lists
the depth-based admission layers probed with ``bisect_right``: finish
times whose ``finish <= now`` can never affect a later depth query once
query times are non-decreasing (arrival order — which both serving
layers require), so they are dropped eagerly and memory stays bounded
by the in-flight depth instead of the trace length.
"""

from __future__ import annotations

import os
from enum import Enum
from heapq import heappop, heappush

__all__ = [
    "Backlog",
    "DepthView",
    "FleetRouter",
    "HeapRouter",
    "PowerAwareRouter",
    "PrunedFinishes",
    "ReferenceRouter",
    "ReplicaStatus",
    "ROUTING_ENV_VAR",
    "make_router",
    "resolve_routing",
]

ROUTING_ENV_VAR = "REPRO_FLEET_ROUTING"
"""Environment override for the fleet routing implementation."""

_ROUTINGS = ("heap", "reference")


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


def resolve_routing(routing: str | None = None) -> str:
    """Pick the routing implementation: explicit arg > env > ``"heap"``."""
    if routing is None:
        routing = os.environ.get(ROUTING_ENV_VAR) or "heap"
    if routing not in _ROUTINGS:
        raise ValueError(
            f"unknown fleet routing {routing!r}; expected one of {_ROUTINGS}"
        )
    return routing


def make_router(routing: str | None = None) -> "FleetRouter":
    """Build the router selected by :func:`resolve_routing`."""
    routing = resolve_routing(routing)
    return HeapRouter() if routing == "heap" else ReferenceRouter()


class FleetRouter:
    """Replica-selection state machine shared by both implementations.

    The fleet calls :meth:`rebuild` once per run (after its reset),
    :meth:`advance` once per trace arrival, and :meth:`update` after any
    replica mutation; every query below must return exactly what the
    reference O(N) scan would.
    """

    name = "base"

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

    def earliest_start(self, now: float) -> float:
        """``min(max(free_at, now))`` over active replicas (>= 1 active)."""
        raise NotImplementedError

    def active_count(self) -> int:
        raise NotImplementedError

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
        self._active_hi: list[tuple[int, int]] = []
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
            self._status[index] = status
        if status is ReplicaStatus.ACTIVE:
            if replica.free_at > self._clock:
                heappush(self._busy, (replica.free_at, index, version))
            else:
                heappush(self._idle, (index, version))
            heappush(self._active_hi, (-index, version))
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
        while busy and busy[0][0] <= now:
            _free_at, index, version = heappop(busy)
            if self._live(index, version, ReplicaStatus.ACTIVE):
                heappush(idle, (index, version))

    def pick(self, now: float, excluded=frozenset()):
        busy, idle = self._busy, self._idle
        # Busy entries already free at `now` (only possible for hedge
        # queries past the clock): set them aside, compete on index.
        ready_aside: list[tuple[float, int, int]] = []
        while busy:
            free_at, index, version = busy[0]
            if free_at > now:
                break
            heappop(busy)
            if self._live(index, version, ReplicaStatus.ACTIVE):
                ready_aside.append((free_at, index, version))
        idle_aside: list[tuple[int, int]] = []
        idle_top: int | None = None
        while idle:
            index, version = idle[0]
            if not self._live(index, version, ReplicaStatus.ACTIVE):
                heappop(idle)
                continue
            if index in excluded:
                idle_aside.append(heappop(idle))
                continue
            idle_top = index
            break
        ready = [
            entry[1] for entry in ready_aside if entry[1] not in excluded
        ]
        if idle_top is not None:
            ready.append(idle_top)
        choice: int | None = None
        if ready:
            # Everyone here starts at `now`; the reference key collapses
            # to (now, index), so the lowest index wins.
            choice = min(ready)
        else:
            busy_aside: list[tuple[float, int, int]] = []
            while busy:
                free_at, index, version = busy[0]
                if not self._live(index, version, ReplicaStatus.ACTIVE):
                    heappop(busy)
                    continue
                if index in excluded:
                    busy_aside.append(heappop(busy))
                    continue
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
        idle = self._idle
        while idle:
            index, version = idle[0]
            if self._live(index, version, ReplicaStatus.ACTIVE):
                return now
            heappop(idle)
        busy = self._busy
        while busy:
            free_at, index, version = busy[0]
            if self._live(index, version, ReplicaStatus.ACTIVE):
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
            neg_index, version = heap[0]
            if self._live(-neg_index, version, ReplicaStatus.ACTIVE):
                return self._replicas[-neg_index]
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


class PowerAwareRouter(FleetRouter):
    """Power-headroom-aware wrapper over either base router.

    The fleet power governor publishes two index sets after every
    governor window:

    - ``parked`` — devices the budget cannot power at all.  A **hard**
      exclusion: parked replicas never take traffic, exactly like an
      excluded hedge target.
    - ``avoid`` — powered devices throttled past the configured
      headroom threshold.  A **soft** penalty on the routing score: the
      pick first competes only unavoided replicas, and falls back to the
      full (non-parked) pool when nothing else is available — a heavily
      capped fleet degrades instead of refusing traffic.

    Everything else — clocks, depth queries, lifecycle heaps — delegates
    to the wrapped router, so the wrapper preserves the reference/heap
    byte-identity contract within each preference tier.
    ``earliest_start`` stays the inner router's answer (the admission
    wait prediction ignores the soft preference; documented in
    docs/power.md).
    """

    name = "power-aware"

    def __init__(self, inner: FleetRouter) -> None:
        self.inner = inner
        self.avoid: frozenset[int] = frozenset()
        self.parked: frozenset[int] = frozenset()

    def set_power_sets(
        self, avoid: frozenset[int], parked: frozenset[int]
    ) -> None:
        self.avoid = avoid
        self.parked = parked

    def rebuild(self, replicas: list) -> None:
        self.avoid = frozenset()
        self.parked = frozenset()
        self.inner.rebuild(replicas)

    def advance(self, now: float) -> None:
        self.inner.advance(now)

    def update(self, replica) -> None:
        self.inner.update(replica)

    def pick(self, now: float, excluded=frozenset()):
        hard = excluded | self.parked if self.parked else excluded
        if self.avoid:
            preferred = self.inner.pick(now, hard | self.avoid)
            if preferred is not None:
                return preferred
        return self.inner.pick(now, hard)

    def earliest_start(self, now: float) -> float:
        return self.inner.earliest_start(now)

    def active_count(self) -> int:
        return self.inner.active_count()

    def standby(self):
        return self.inner.standby()

    def drain_victim(self):
        return self.inner.drain_victim()

    def due_repair(self, now: float | None = None):
        return self.inner.due_repair(now)


class PrunedFinishes:
    """Finish-time multiset answering bounded depth queries.

    Replaces the sorted ``finishes`` list + ``bisect_right`` pattern:
    ``depth(now)`` is the number of recorded finish times strictly after
    ``now``.  Query times must be non-decreasing (the serving layers
    query at trace arrivals, which are validated/assumed time-ordered);
    under that contract entries with ``finish <= now`` can never affect
    a later query and are dropped, so the structure holds only the
    in-flight tail instead of the whole trace history.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[float] = []

    def push(self, finish: float) -> None:
        heappush(self._heap, finish)

    def depth(self, now: float) -> int:
        heap = self._heap
        while heap and heap[0] <= now:
            heappop(heap)
        return len(heap)

    def __len__(self) -> int:
        return len(self._heap)


class Backlog:
    """Finish times of admitted requests, per tenant and per SLO class.

    Tenant depths feed the flat ``ras.queue_depth_limit`` check and
    class depths the admission controller; each side is recorded only
    when its reader exists. An attached controller (``admission``)
    replaces the flat check, so at most one side is ever recorded.
    """

    __slots__ = ("tenants", "classes", "_flat", "_by_class")

    def __init__(self, tenants, ras, admission) -> None:
        self.tenants = {name: PrunedFinishes() for name in tenants}
        self.classes: dict[str, PrunedFinishes] = {}
        self._by_class = admission is not None
        self._flat = admission is None and ras.queue_depth_limit is not None

    def push(self, request, finish: float) -> None:
        if self._flat:
            self.tenants[request.tenant].push(finish)
        if self._by_class:
            entry = self.classes.get(request.slo_class)
            if entry is None:
                entry = self.classes[request.slo_class] = PrunedFinishes()
            entry.push(finish)

    def class_depths(self, now: float) -> "DepthView":
        return DepthView(self.classes, now)


class DepthView:
    """Lazy per-class depth mapping over :class:`PrunedFinishes`.

    Duck-types the ``depths.get(name, default)`` reads the admission
    controller performs, computing each class's depth only when asked —
    the fleet no longer rebuilds a full depth dict per arrival/tick.
    """

    __slots__ = ("_finishes", "_now")

    def __init__(self, finishes: dict[str, PrunedFinishes], now: float) -> None:
        self._finishes = finishes
        self._now = now

    def get(self, name: str, default: int = 0) -> int:
        entry = self._finishes.get(name)
        if entry is None:
            return default
        return entry.depth(self._now)
