"""Instruction buffer with cache mode and user-controlled prefetch (§IV-B).

"DTU 2.0 enables instruction cache and provides specific instructions to the
programmers for controlling kernel code prefetch. [...] By inserting the
prefetch instructions, the kernel code of the upcoming operator is loaded in
advance to avoid performance penalties. Besides, it solves the problem of
loading extremely large kernels that exceed the capacity of the instruction
buffer. On cache misses, the instruction buffer triggers kernel code loading
automatically."

Model: an LRU cache over kernel ids. ``prefetch`` starts a background load
that completes at ``now + load_time``; a later ``fetch`` pays only the
remaining time. Kernels larger than the buffer stream in segments — the
first buffer-full must be resident before execution starts, the rest streams
during execution (charged as the overflow fraction of the load time, the
behaviour cache mode enables).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class FetchResult:
    """Outcome of one kernel-code fetch."""

    stall_ns: float
    hit: bool
    prefetched: bool


class InstructionBuffer:
    """Per-core instruction buffer, optionally in cache mode."""

    def __init__(
        self,
        capacity_bytes: int,
        load_bandwidth_gbps: float,
        load_latency_ns: float = 120.0,
        cache_mode: bool = True,
        prefetch_enabled: bool = True,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("instruction buffer needs positive capacity")
        self.capacity_bytes = capacity_bytes
        self.load_bandwidth_gbps = load_bandwidth_gbps
        self.load_latency_ns = load_latency_ns
        self.cache_mode = cache_mode
        self.prefetch_enabled = prefetch_enabled
        self._resident: OrderedDict[str, int] = OrderedDict()
        #: sum of ``_resident``'s values, kept as kernels come and go
        self._resident_total = 0
        self._prefetch_done_at: dict[str, float] = {}
        self.hits = 0
        self.misses = 0
        self.prefetch_hits = 0

    # -- internals -----------------------------------------------------------

    def _load_time_ns(self, nbytes: int) -> float:
        return self.load_latency_ns + nbytes / self.load_bandwidth_gbps

    def _make_room(self, nbytes: int) -> None:
        budget = min(nbytes, self.capacity_bytes)
        resident = self._resident
        while resident and self._resident_total + budget > self.capacity_bytes:
            self._resident_total -= resident.popitem(last=False)[1]  # evict LRU

    def _install(self, kernel_id: str, nbytes: int) -> None:
        self._make_room(nbytes)
        resident = self._resident
        size = min(nbytes, self.capacity_bytes)
        self._resident_total += size - resident.get(kernel_id, 0)
        resident[kernel_id] = size
        resident.move_to_end(kernel_id)

    # -- public API ------------------------------------------------------------

    def prefetch(self, kernel_id: str, nbytes: int, now_ns: float) -> float:
        """Issue a background load; returns its completion time.

        A no-op (returns ``now_ns``) when prefetch is disabled or the kernel
        is already resident in cache mode.
        """
        if not self.prefetch_enabled:
            return now_ns
        if self.cache_mode and kernel_id in self._resident:
            return now_ns
        done = now_ns + self._load_time_ns(nbytes)
        previous = self._prefetch_done_at.get(kernel_id)
        if previous is None or previous > done:
            self._prefetch_done_at[kernel_id] = done
        return self._prefetch_done_at[kernel_id]

    def fetch(self, kernel_id: str, nbytes: int, now_ns: float) -> FetchResult:
        """Make the kernel executable; returns the stall this fetch costs."""
        overflow = max(0, nbytes - self.capacity_bytes)
        # Overflow streams in during execution once cache mode handles the
        # wrap-around; without cache mode the whole body reloads serially.
        if self.cache_mode:
            overflow_stall = 0.0
            first_fill = min(nbytes, self.capacity_bytes)
        else:
            overflow_stall = overflow / self.load_bandwidth_gbps
            first_fill = min(nbytes, self.capacity_bytes)

        if self.cache_mode and kernel_id in self._resident:
            self.hits += 1
            self._resident.move_to_end(kernel_id)
            return FetchResult(stall_ns=0.0, hit=True, prefetched=False)

        done_at = self._prefetch_done_at.pop(kernel_id, None)
        if done_at is not None:
            remaining = max(0.0, done_at - now_ns)
            self.prefetch_hits += 1
            if self.cache_mode:
                self._install(kernel_id, nbytes)
            return FetchResult(stall_ns=remaining, hit=False, prefetched=True)

        self.misses += 1
        stall = self._load_time_ns(first_fill) + overflow_stall
        if self.cache_mode:
            self._install(kernel_id, nbytes)
        return FetchResult(stall_ns=stall, hit=False, prefetched=False)

    def invalidate(self) -> None:
        self._resident.clear()
        self._resident_total = 0
        self._prefetch_done_at.clear()
