"""Content-addressed compilation and measurement caches.

The compiler pipeline (optimize -> lower) and the serving layer's
service-time measurement (a full simulator run per tenant model) are both
pure functions of their inputs: graphs are value objects with a stable
:meth:`~repro.graph.ir.Graph.structural_hash`, chip configs are frozen
dataclasses, and the discrete-event simulator is deterministic. That makes
their outputs safe to memoize process-wide:

- :class:`CompileCache` keys compiled models on (graph structural hash,
  chip config, dtype, fusion flag, fusion-guard flag). ``Device.compile``
  consults the shared :data:`COMPILE_CACHE` by default, so recompiling the
  same bound graph on an identical chip is a dictionary lookup.
- :class:`MeasurementCache` memoizes
  :func:`repro.serving.server.measure_service_time_ns` on
  (model name, group count, device name), so constructing a
  second :class:`~repro.serving.server.InferenceServer` over the same
  tenant set — or re-deriving degraded-mode service times — costs zero
  additional simulator runs.

Both caches keep monotonic hit/miss/invalidation counters
(:class:`CacheStats`) and can mirror them into a
:class:`repro.obs.MetricsRegistry` via :func:`export_cache_metrics`; the
``repro profile`` CLI prints the same snapshot. Invalidation is explicit:
``invalidate(key)``, ``clear()``, or :func:`reset_global_caches` (which
tests use for isolation). Entries are bounded FIFO — at ``capacity`` the
oldest insertion is evicted.

Thread safety: every public method takes the cache's lock, so concurrent
compiles from serving worker threads cannot corrupt the table (they may
race to build the same entry; last put wins, which is harmless because
builds are deterministic).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = [
    "CacheStats",
    "CompileCache",
    "MeasurementCache",
    "COMPILE_CACHE",
    "MEASUREMENT_CACHE",
    "export_cache_metrics",
    "reset_global_caches",
]


@dataclass
class CacheStats:
    """Monotonic lookup accounting for one cache."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class _KeyedCache:
    """Bounded FIFO map with stats; base of both caches."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """Cached value or None; counts a hit or a miss."""
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def get_or_build(self, key, builder):
        """Return the cached value, building (and storing) it on a miss."""
        cached = self.get(key)
        if cached is not None:
            return cached
        value = builder()
        self.put(key, value)
        return value

    def invalidate(self, key) -> bool:
        """Drop one entry; True if it existed."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.stats.invalidations += 1
                return True
            return False

    def clear(self) -> int:
        """Drop every entry, returning how many were evicted."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += count
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries


class CompileCache(_KeyedCache):
    """Content-addressed store of :class:`~repro.compiler.lowering.CompiledModel`.

    Keys come from :meth:`key_for`: the *bound* graph's structural hash
    (so shape bindings are covered), the chip config's repr (clock,
    geometry, feature flags — frozen dataclass, deterministic repr), the
    target dtype, the resolved fusion flag and the fusion-guard flag.
    Compiled models are never mutated after lowering, so hits return the
    shared instance.
    """

    @staticmethod
    def key_for(
        graph, chip, dtype, fusion: bool, verified: bool = False
    ) -> tuple:
        """Content-address one compile.

        ``verified`` separates guard-checked compiles from plain ones: a
        fusion-guard fallback must not poison the unverified entry (and
        vice versa), so the two flavours get distinct keys.
        """
        return (
            graph.structural_hash(),
            repr(chip),
            dtype.name,
            bool(fusion),
            bool(verified),
        )


class MeasurementCache(_KeyedCache):
    """Memo for simulator-measured per-request service times.

    Keyed on (model name, group count, device name):
    :func:`repro.serving.server.measure_service_time_ns` always builds a
    fresh card of that device from the model-zoo name, and the simulator
    is deterministic, so the memoized latency equals what a
    re-measurement would produce.
    The memo is bypassed whenever the measurement carries observable side
    effects (an attached obs hub or fault plan) — those runs must actually
    happen so their spans and fault timelines exist.
    """

    @staticmethod
    def key_for(model: str, groups: int, device: str = "i20") -> tuple:
        return (model, int(groups), device)


#: process-wide caches; ``Device.compile`` and ``measure_service_time_ns``
#: use these unless handed an explicit cache (or None to bypass).
COMPILE_CACHE = CompileCache()
MEASUREMENT_CACHE = MeasurementCache()


def reset_global_caches() -> None:
    """Empty both global caches and zero their stats (test isolation)."""
    for cache in (COMPILE_CACHE, MEASUREMENT_CACHE):
        cache.clear()
        cache.stats = CacheStats()


def export_cache_metrics(registry) -> None:
    """Mirror cache stats into a metrics registry as gauges.

    Gauges (not counters) because this is a point-in-time snapshot of
    monotonic totals owned by the caches; calling it twice must not
    double-count. Per-lookup counters are additionally emitted by
    ``Device.compile`` on a card with an observability hub attached.
    """
    for name, cache in (("compile", COMPILE_CACHE), ("measurement", MEASUREMENT_CACHE)):
        labels = {"cache": name}
        registry.gauge("cache_hits", "cache lookup hits").set(
            cache.stats.hits, **labels
        )
        registry.gauge("cache_misses", "cache lookup misses").set(
            cache.stats.misses, **labels
        )
        registry.gauge("cache_invalidations", "entries explicitly dropped").set(
            cache.stats.invalidations, **labels
        )
        registry.gauge("cache_entries", "live cache entries").set(
            len(cache), **labels
        )
        registry.gauge("cache_hit_rate", "hits / lookups").set(
            cache.stats.hit_rate, **labels
        )
