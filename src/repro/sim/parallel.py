"""Sharded execution of independent simulations across worker processes.

The event core (:mod:`repro.sim.kernel`) is single-threaded by design —
one heap, one clock, strict ``(time, seq)`` order. Fleet- and
serving-layer workloads, however, are collections of *independent*
simulations: each chaos scenario derives its own seed stream, each
service-time measurement builds its own accelerator. This module runs
such collections across forked worker processes and merges the results
back in submission order.

Bit-reproducibility contract (see docs/sim-internals.md):

- every shard executes the *same code path* a serial run would, on a
  process image forked before any task ran, so each task's result is
  bitwise the task's serial result;
- the merge step reassembles results by submission index, never by
  completion order, so the merged list is byte-identical to the serial
  list — only wall-clock changes;
- anything that would break that contract (platforms without ``fork``,
  a single worker, one task, ``workers=1``) degrades to plain
  serial execution of the identical code path.

Workers are plain ``os.fork`` children writing one pickle to a pipe and
exiting via ``os._exit`` — no pool machinery, no spawn-mode pickling of
callables, a few milliseconds of overhead per worker.
"""

from __future__ import annotations

import gc
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field

__all__ = [
    "ShardError",
    "ShardStats",
    "default_workers",
    "export_shard_metrics",
    "run_sharded",
    "run_sharded_with_stats",
]

#: Soft cap when sizing from ``os.cpu_count`` — sharded simulations are
#: CPU-bound, so oversubscription only adds scheduler noise.
DEFAULT_MAX_WORKERS = 8


class ShardError(RuntimeError):
    """A worker process failed; carries the worker's traceback text."""


#: Stats of the most recent sharded run in this process, for the
#: ``repro profile`` engine table (:func:`export_shard_metrics`).
LAST_SHARD_STATS: "ShardStats | None" = None


def export_shard_metrics(registry) -> None:
    """Mirror the last sharded run into a metrics registry as gauges."""
    stats = LAST_SHARD_STATS
    if stats is None:
        return
    registry.gauge(
        "sim_shard_workers", "worker count of the last sharded run"
    ).set(stats.workers)
    wall = registry.gauge(
        "sim_shard_wall_seconds",
        "per-shard wall time of the last sharded run", unit="seconds",
    )
    for shard in stats.shards:
        wall.set(shard["wall_seconds"], shard=str(shard["worker"]))


@dataclass
class ShardStats:
    """How one sharded run was executed (the ``repro profile`` table)."""

    workers: int = 1
    forked: bool = False
    shards: list[dict] = field(default_factory=list)
    """One row per shard: ``{"worker", "items", "wall_seconds"}``."""

    @property
    def max_shard_wall_seconds(self) -> float:
        return max((s["wall_seconds"] for s in self.shards), default=0.0)


def default_workers(tasks: int, workers: int | None = None) -> int:
    """Resolve the worker count for ``tasks`` independent tasks.

    Explicit ``workers`` wins (``1`` forces serial), else
    ``min(tasks, cpu_count, DEFAULT_MAX_WORKERS)``. The result is clamped
    to ``[1, tasks]`` and collapses to 1 when the platform cannot fork.
    """
    if workers is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            cpus = os.cpu_count() or 1
        workers = min(tasks, cpus, DEFAULT_MAX_WORKERS)
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only repo
        return 1
    return max(1, min(workers, tasks))


def _child_main(fn, indexed_items, write_fd: int) -> None:
    """Worker body: run the shard, pickle one reply, hard-exit.

    ``os._exit`` skips atexit hooks and stream flushing on purpose: the
    child is a forked copy of an arbitrary parent (pytest, the CLI) and
    must not replay the parent's teardown side effects.
    """
    started = time.perf_counter()
    try:
        # The child lives for one shard and then hard-exits; cycle
        # collection only burns time and dirties copy-on-write pages.
        gc.disable()
        results = [(index, fn(item)) for index, item in indexed_items]
        payload = ("ok", results, time.perf_counter() - started)
    except BaseException as error:  # noqa: BLE001 - forwarded to parent
        payload = ("error", repr(error), traceback.format_exc())
    with os.fdopen(write_fd, "wb") as pipe:
        pickle.dump(payload, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        pipe.flush()
    os._exit(0)


def run_sharded_with_stats(fn, items, workers: int | None = None):
    """Map ``fn`` over ``items``; returns ``(results, ShardStats)``.

    Results are in submission order regardless of shard completion
    order. Tasks are dealt round-robin across shards so heterogeneous
    task costs balance. Serial fallback (1 worker / 1 task / no fork)
    runs the identical ``[fn(item) for item in items]`` path.
    """
    global LAST_SHARD_STATS
    items = list(items)
    stats = ShardStats()
    if not items:
        return [], stats
    LAST_SHARD_STATS = stats
    count = default_workers(len(items), workers)
    stats.workers = count
    if count <= 1 or len(items) <= 1:
        started = time.perf_counter()
        results = [fn(item) for item in items]
        stats.shards.append(
            {
                "worker": 0,
                "items": len(items),
                "wall_seconds": time.perf_counter() - started,
            }
        )
        return results, stats

    stats.forked = True
    indexed = list(enumerate(items))
    shards = [indexed[worker::count] for worker in range(count)]
    children: list[tuple[int, int, int]] = []  # (worker, pid, read_fd)
    for worker, shard in enumerate(shards):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(read_fd)
            _child_main(fn, shard, write_fd)
            raise AssertionError("unreachable")  # pragma: no cover
        os.close(write_fd)
        children.append((worker, pid, read_fd))

    results: list = [None] * len(items)
    failure: tuple[str, str] | None = None
    for worker, pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                payload = pickle.load(pipe)
            except EOFError:
                payload = ("error", "worker died before replying", "")
        os.waitpid(pid, 0)
        if payload[0] == "ok":
            _, shard_results, wall = payload
            for index, result in shard_results:
                results[index] = result
            stats.shards.append(
                {
                    "worker": worker,
                    "items": len(shard_results),
                    "wall_seconds": wall,
                }
            )
        elif failure is None:
            failure = (payload[1], payload[2])
    if failure is not None:
        summary, trace_text = failure
        raise ShardError(
            f"sharded worker failed: {summary}\n{trace_text}".rstrip()
        )
    return results, stats


def run_sharded(fn, items, workers: int | None = None):
    """Like :func:`run_sharded_with_stats` but returns results only."""
    results, _stats = run_sharded_with_stats(fn, items, workers)
    return results
