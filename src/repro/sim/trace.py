"""Execution tracing for the performance simulator.

A :class:`Trace` collects timed *intervals* (an engine doing something from
``start`` to ``end``) and named *counters*. The profiler and the power model
both consume traces: the profiler to report per-operator latency, the power
model to reconstruct per-engine busy/stall duty cycles inside DVFS
observation windows.

Interval queries
----------------

The power manager asks one ``busy_time`` question per engine per DVFS
observation window — thousands of queries over a trace that keeps
growing. Scanning **every** interval per query is quadratic over a run,
so the trace keeps a *columnar* per-engine timeline (parallel start/end
lists, append-only) with a monotone skip pointer: one query touches only
that engine's still-relevant intervals and merges them with a scalar
clip/sort/accumulate.

Bit-reproducibility contract (docs/sim-internals.md): the query performs
**exactly** the same IEEE-754 operations as the reference scan — clip by
``max``/``min``, advance the merge cursor by running ``max``, and
accumulate positive segment lengths left-to-right in the same
``(start, end)`` lexicographic order — so its results are bit-identical,
not merely close. ``_busy_time_reference`` retains the original scan as
the pinned oracle.

Interval ordering: intervals carry a per-trace ``seq`` assigned at record
time, and compare by ``(start, end, seq)`` — a total order defined purely
by time and sequence, never by object identity, so sorting or merging
interval streams (e.g. the sharded parallel runner's trace merge) is
deterministic across processes and runs.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass, field


class Interval:
    """One engine activity: ``engine`` was busy on ``label`` in [start, end).

    ``seq`` is the interval's position in its trace's record order (0 for
    hand-built intervals). Intervals are immutable value objects with a
    total order by ``(start, end, seq)``.
    """

    __slots__ = ("engine", "label", "start", "end", "seq")

    def __init__(
        self, engine: str, label: str, start: float, end: float, seq: int = 0
    ) -> None:
        if start != start or end != end:  # NaN
            raise ValueError(
                f"interval has NaN endpoints: "
                f"Interval({engine!r}, {label!r}, {start}, {end})"
            )
        if start < 0.0:
            raise ValueError(
                f"interval starts before time zero: "
                f"Interval({engine!r}, {label!r}, {start}, {end})"
            )
        if end < start:
            raise ValueError(
                f"interval ends before it starts: "
                f"Interval({engine!r}, {label!r}, {start}, {end})"
            )
        self.engine = engine
        self.label = label
        self.start = start
        self.end = end
        self.seq = seq

    @property
    def duration(self) -> float:
        return self.end - self.start

    def _key(self):
        return (self.start, self.end, self.seq)

    def __lt__(self, other: "Interval") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Interval") -> bool:
        return self._key() <= other._key()

    def __eq__(self, other) -> bool:
        if isinstance(other, Interval):
            return (
                self.engine == other.engine
                and self.label == other.label
                and self.start == other.start
                and self.end == other.end
                and self.seq == other.seq
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.engine, self.label, self.start, self.end, self.seq))

    def __repr__(self) -> str:
        return (
            f"Interval(engine={self.engine!r}, label={self.label!r}, "
            f"start={self.start}, end={self.end}, seq={self.seq})"
        )


class _EngineTimeline:
    """Columnar (start, end) store for one engine's intervals, appended in
    record order.

    Window queries keep a *monotone skip pointer*: the power manager asks
    about consecutive non-overlapping windows with ever-increasing
    ``start``, so any prefix of intervals whose ``end <= start`` can never
    overlap this or a later window and is skipped permanently. A query
    whose ``start`` moves backwards (profiler-style full-range query)
    resets the pointer — always correct, merely less pruned. Skipped
    intervals would have failed the overlap test anyway, so pruning never
    changes the candidate set, only how fast it is found.
    """

    __slots__ = ("size", "_starts", "_ends", "_skip", "_skip_start")

    def __init__(self) -> None:
        self.size = 0
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._skip = 0
        self._skip_start = 0.0

    def add(self, start: float, end: float) -> None:
        self._starts.append(start)
        self._ends.append(end)
        self.size += 1

    def busy_time(self, start: float, end: float) -> float:
        """Merged busy time inside [start, end) — bit-identical to the
        reference scan (same clip, same sort order, same left-to-right
        accumulation) over the candidates the skip pointer leaves."""
        size = self.size
        ends = self._ends
        if start >= self._skip_start:
            ptr = self._skip
        else:
            ptr = 0
        while ptr < size and ends[ptr] <= start:
            ptr += 1
        self._skip = ptr
        self._skip_start = start
        if ptr == size:
            return 0.0
        starts = self._starts
        clipped = []
        for index in range(ptr, size):
            hi = ends[index]
            if hi > start:
                lo = starts[index]
                if lo < end:
                    clipped.append(
                        (lo if lo > start else start, hi if hi < end else end)
                    )
        clipped.sort()
        busy = 0.0
        cursor = start
        for lo, hi in clipped:
            if lo < cursor:
                lo = cursor
            if hi > lo:
                busy += hi - lo
                cursor = hi
        return busy


@dataclass
class Trace:
    """Append-only record of simulation activity."""

    intervals: list[Interval] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def __post_init__(self) -> None:
        self._timelines: dict[str, _EngineTimeline] = {}
        self._max_end = 0.0
        for interval in self.intervals:
            self._index(interval.engine, interval.start, interval.end)

    def _index(self, engine: str, start: float, end: float) -> None:
        timeline = self._timelines.get(engine)
        if timeline is None:
            timeline = self._timelines[engine] = _EngineTimeline()
        timeline.add(start, end)
        if end > self._max_end:
            self._max_end = end

    def record(self, engine: str, label: str, start: float, end: float) -> None:
        # intern the engine/label strings: call sites build them with
        # f-strings per event, and interning collapses those to shared
        # objects (pointer-fast dict lookups, no per-record string churn).
        engine = sys.intern(engine)
        intervals = self.intervals
        intervals.append(
            Interval(engine, sys.intern(label), start, end, seq=len(intervals))
        )
        self._index(engine, start, end)

    def bump(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] += amount

    def engines(self) -> set[str]:
        return set(self._timelines)

    def _busy_time_reference(
        self, engine: str, start: float, end: float
    ) -> float:
        """The pinned pure-Python scan ``busy_time`` must match bit-for-bit."""
        clipped = sorted(
            (max(interval.start, start), min(interval.end, end))
            for interval in self.intervals
            if interval.engine == engine
            and interval.end > start
            and interval.start < end
        )
        busy = 0.0
        cursor = start
        for lo, hi in clipped:
            lo = max(lo, cursor)
            if hi > lo:
                busy += hi - lo
                cursor = hi
        return busy

    def busy_time(self, engine: str, start: float = 0.0, end: float | None = None) -> float:
        """Total time ``engine`` spent busy inside the [start, end) window.

        Intervals are clipped to the window; overlapping intervals on the
        same engine are merged so double-booked time is not counted twice.
        """
        if end is None:
            end = self.end_time()
        timeline = self._timelines.get(engine)
        if timeline is None:
            return 0.0
        return timeline.busy_time(start, end)

    def utilization(self, engine: str, start: float = 0.0, end: float | None = None) -> float:
        """Busy fraction of ``engine`` over the window; 0 for an empty window."""
        if end is None:
            end = self.end_time()
        span = end - start
        if span <= 0:
            return 0.0
        return self.busy_time(engine, start, end) / span

    def end_time(self) -> float:
        return self._max_end

    def by_label(self) -> dict[str, float]:
        """Aggregate busy duration per label (e.g. per operator name)."""
        totals: dict[str, float] = defaultdict(float)
        for interval in self.intervals:
            totals[interval.label] += interval.duration
        return dict(totals)
