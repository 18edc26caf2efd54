"""The sharded parallel runner: ordering, failure, stats, reproducibility.

``repro.sim.parallel`` forks worker processes over *independent*
simulations and merges results by submission index. The contract
(docs/sim-internals.md) is that a sharded run is byte-identical to the
serial run — these tests force ``workers=2`` explicitly so the forked
path is exercised even on single-CPU CI machines, where
:func:`default_workers` would otherwise degrade to serial.
"""

from __future__ import annotations

import os

import pytest

from repro.sim import parallel
from repro.sim.parallel import (
    ShardError,
    default_workers,
    run_sharded,
    run_sharded_with_stats,
)


def _square(value: int) -> int:
    return value * value


def _parent_pid(_item) -> int:
    return os.getpid()


def _boom(value: int) -> int:
    if value == 3:
        raise ValueError("item three is cursed")
    return value


# ---------------------------------------------------------------------------
# worker-count resolution
# ---------------------------------------------------------------------------


def test_default_workers_explicit_wins():
    assert default_workers(10, workers=3) == 3
    assert default_workers(10, workers=1) == 1


def test_default_workers_ignores_retired_env_var(monkeypatch):
    sized = default_workers(10)
    monkeypatch.setenv("REPRO_SIM_WORKERS", "7")
    assert default_workers(10) == sized


def test_default_workers_clamped_to_tasks():
    assert default_workers(2, workers=16) == 2
    assert default_workers(1) == 1
    assert default_workers(5, workers=0) == 1


# ---------------------------------------------------------------------------
# run_sharded semantics
# ---------------------------------------------------------------------------


def test_empty_items_short_circuit():
    assert run_sharded(_square, [], workers=4) == []


def test_results_in_submission_order_regardless_of_workers():
    items = list(range(17))
    expected = [_square(item) for item in items]
    for workers in (1, 2, 3, 5):
        assert run_sharded(_square, items, workers=workers) == expected


def test_forked_run_actually_forks():
    pids = run_sharded(_parent_pid, [0, 1, 2, 3], workers=2)
    assert all(pid != os.getpid() for pid in pids)
    assert len(set(pids)) == 2  # one child per shard


def test_serial_fallback_runs_in_process():
    pids = run_sharded(_parent_pid, [0, 1, 2, 3], workers=1)
    assert set(pids) == {os.getpid()}


def test_worker_exception_surfaces_as_shard_error():
    with pytest.raises(ShardError, match="ValueError.*cursed"):
        run_sharded(_boom, list(range(6)), workers=2)


def test_shard_stats_account_for_every_item():
    results, stats = run_sharded_with_stats(_square, list(range(9)), workers=2)
    assert results == [_square(v) for v in range(9)]
    assert stats.workers == 2 and stats.forked
    assert sum(shard["items"] for shard in stats.shards) == 9
    assert all(shard["wall_seconds"] >= 0.0 for shard in stats.shards)
    assert stats.max_shard_wall_seconds >= 0.0
    assert parallel.LAST_SHARD_STATS is stats


def test_serial_stats_single_shard():
    results, stats = run_sharded_with_stats(_square, [2, 4], workers=1)
    assert results == [4, 16]
    assert stats.workers == 1 and not stats.forked
    assert [shard["items"] for shard in stats.shards] == [2]


# ---------------------------------------------------------------------------
# chaos suite: N-shard run byte-identical to serial
# ---------------------------------------------------------------------------


def _sharded_matches_serial(cold: bool) -> None:
    from repro.caching import reset_global_caches
    from repro.chaos import run_suite

    names = ["baseline", "transient-storm"]
    # measured=True measures each tenant model once in the parent, then
    # forks: every shard must see the service times a serial run sees.
    for measured in (False, True):
        serial = run_suite(names=names, seed=7, measured=measured, workers=1)
        if cold:
            reset_global_caches()
        sharded = run_suite(names=names, seed=7, measured=measured, workers=2)
        assert serial.to_json() == sharded.to_json()


def test_chaos_suite_sharded_equals_serial():
    _sharded_matches_serial(cold=False)


def test_chaos_suite_sharded_from_cold_caches_equals_serial():
    # Empty caches before the sharded run: each worker (or, measured,
    # the parent) pays its own cold compile.
    _sharded_matches_serial(cold=True)
