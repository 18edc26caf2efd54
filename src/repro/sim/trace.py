"""Execution tracing for the performance simulator.

A :class:`Trace` collects timed *intervals* (an engine doing something from
``start`` to ``end``) and named *counters*. The profiler and the power model
both consume traces: the profiler to report per-operator latency, the power
model to reconstruct per-engine busy/stall duty cycles inside DVFS
observation windows.

Vectorized interval queries
---------------------------

The power manager asks ``busy_time`` / ``utilization`` questions about a
sliding window once per DVFS observation window, per engine — thousands of
queries over a trace that keeps growing. The original implementation
scanned **every** interval in the trace per query (quadratic over a run;
it dominated end-to-end launch wall time). The trace now keeps a
*columnar* per-engine timeline (parallel start/end columns, grown
append-only) with a monotone skip pointer, so one query touches only that
engine's still-relevant intervals; large candidate sets run the
overlap/clip/merge as a handful of vectorized NumPy array operations,
small ones as a scalar merge over the pruned slice (see
``_VECTOR_CUTOFF``).

Bit-reproducibility contract (docs/sim-internals.md): both query paths
perform **exactly** the same IEEE-754 operations as the reference scan —
clip by ``max``/``min``, advance the merge cursor by running ``max``, and
accumulate positive segment lengths left-to-right in the same
``(start, end)`` lexicographic order — so their results are bit-identical,
not merely close. ``_busy_time_reference`` retains the original scan as
the pinned oracle; without NumPy every query takes the scalar path.

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

try:  # NumPy backs the vectorized fast path; the trace works without it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised via _busy_time_reference
    np = None


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


#: candidate-set size at which a window query switches from the scalar
#: merge to the NumPy batch: below this, fixed per-call array overhead
#: outweighs the vector win (both paths are bit-identical to the
#: reference scan, so the cutoff is purely a speed knob).
_VECTOR_CUTOFF = 64


class _EngineTimeline:
    """Columnar (start, end) store for one engine's intervals.

    Append-only, in record order: Python lists always, plus
    capacity-doubling NumPy buffers (when NumPy is available) for the
    vectorized batch path, mirrored from the lists only when a batch query
    needs them (most engines never have one).

    Window queries keep a *monotone skip pointer*: the power manager asks
    about consecutive non-overlapping windows with ever-increasing
    ``start``, so any prefix of intervals whose ``end <= start`` can never
    overlap this or a later window and is skipped permanently. A query
    whose ``start`` moves backwards (profiler-style full-range query)
    resets the pointer — always correct, merely less pruned. Skipped
    intervals would have failed the overlap test anyway, so pruning never
    changes the candidate set, only how fast it is found.
    """

    __slots__ = (
        "size", "_starts", "_ends", "_np_starts", "_np_ends", "_np_size",
        "_skip", "_skip_start", "scalar_queries", "vector_queries",
    )

    def __init__(self) -> None:
        self.size = 0
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._skip = 0
        self._skip_start = 0.0
        self.scalar_queries = 0
        self.vector_queries = 0
        self._np_starts = self._np_ends = None
        self._np_size = 0

    def add(self, start: float, end: float) -> None:
        self._starts.append(start)
        self._ends.append(end)
        self.size += 1

    def _mirror(self) -> None:
        """Bring the NumPy buffers up to date with the lists."""
        size, mirrored = self.size, self._np_size
        if self._np_starts is None or size > len(self._np_starts):
            capacity = 16
            while capacity < size:
                capacity *= 2
            for name in ("_np_starts", "_np_ends"):
                grown = np.empty(capacity, dtype=np.float64)
                old = getattr(self, name)
                if old is not None:
                    grown[:mirrored] = old[:mirrored]
                setattr(self, name, grown)
        self._np_starts[mirrored:size] = self._starts[mirrored:size]
        self._np_ends[mirrored:size] = self._ends[mirrored:size]
        self._np_size = size

    def busy_time(self, start: float, end: float) -> float:
        """Merged busy time inside [start, end) — bit-identical to the
        reference scan (same clip, same sort order, same left-to-right
        accumulation), via either the scalar or the NumPy batch path."""
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
        if np is not None and size - ptr > _VECTOR_CUTOFF:
            return self._busy_time_vector(ptr, start, end)
        # Scalar path: the reference merge over the surviving candidates.
        self.scalar_queries += 1
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

    def _busy_time_vector(self, ptr: int, start: float, end: float) -> float:
        """NumPy batch: overlap test, clip, merge as array operations."""
        self.vector_queries += 1
        if self._np_size < self.size:
            self._mirror()
        starts = self._np_starts[ptr:self.size]
        ends = self._np_ends[ptr:self.size]
        mask = (ends > start) & (starts < end)
        if not mask.any():
            return 0.0
        los = np.maximum(starts[mask], start)
        his = np.minimum(ends[mask], end)
        order = np.lexsort((his, los))  # == sorted(zip(los, his)), stable
        los = los[order]
        his = his[order]
        # reference merge: cursor_i = max(window start, max(his[:i])) —
        # uncounted segments never move the cursor backwards, so the
        # running max is exactly the reference cursor.
        cursor = np.empty_like(his)
        cursor[0] = start
        if len(his) > 1:
            np.maximum.accumulate(his[:-1], out=cursor[1:])
        effective = np.maximum(los, cursor)
        gains = his - effective
        busy = 0.0
        for gain in gains[gains > 0.0].tolist():
            busy += gain
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

    def query_stats(self) -> dict[str, int]:
        """How window queries were served: scalar merges vs NumPy batches.

        The ``repro profile`` engine table derives its vectorized-batch hit
        rate from these (see docs/sim-internals.md).
        """
        scalar = sum(t.scalar_queries for t in self._timelines.values())
        vector = sum(t.vector_queries for t in self._timelines.values())
        return {"scalar_queries": scalar, "vector_queries": vector}

    def _busy_time_reference(
        self, engine: str, start: float, end: float
    ) -> float:
        """The pinned pure-Python scan the vectorized query must match."""
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
