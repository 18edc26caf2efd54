"""Unit tests for the execution trace."""

import random

import pytest

from repro.sim import Interval, Trace


def test_interval_duration():
    assert Interval("e", "l", 2.0, 5.0).duration == 3.0


def test_interval_backwards_rejected():
    with pytest.raises(ValueError):
        Interval("e", "l", 5.0, 2.0)


def test_interval_nan_start_rejected():
    with pytest.raises(ValueError):
        Interval("e", "l", float("nan"), 2.0)


def test_interval_nan_end_rejected():
    with pytest.raises(ValueError):
        Interval("e", "l", 0.0, float("nan"))


def test_interval_negative_start_rejected():
    with pytest.raises(ValueError):
        Interval("e", "l", -1.0, 2.0)


def test_interval_zero_start_allowed():
    assert Interval("e", "l", 0.0, 0.0).duration == 0.0


def test_busy_time_merges_overlaps():
    trace = Trace()
    trace.record("core", "a", 0.0, 10.0)
    trace.record("core", "b", 5.0, 15.0)
    assert trace.busy_time("core") == 15.0


def test_busy_time_clips_to_window():
    trace = Trace()
    trace.record("core", "a", 0.0, 100.0)
    assert trace.busy_time("core", 20.0, 30.0) == 10.0


def test_busy_time_ignores_other_engines():
    trace = Trace()
    trace.record("core", "a", 0.0, 10.0)
    trace.record("dma", "b", 0.0, 50.0)
    assert trace.busy_time("core") == 10.0


def test_utilization_full_window():
    trace = Trace()
    trace.record("core", "a", 0.0, 25.0)
    assert trace.utilization("core", 0.0, 50.0) == pytest.approx(0.5)


def test_utilization_empty_window_is_zero():
    trace = Trace()
    assert trace.utilization("core", 10.0, 10.0) == 0.0


def test_utilization_disjoint_intervals():
    trace = Trace()
    trace.record("core", "a", 0.0, 10.0)
    trace.record("core", "b", 20.0, 30.0)
    assert trace.utilization("core", 0.0, 40.0) == pytest.approx(0.5)


def test_end_time_tracks_latest():
    trace = Trace()
    trace.record("a", "x", 0.0, 10.0)
    trace.record("b", "y", 5.0, 99.0)
    assert trace.end_time() == 99.0


def test_end_time_empty_is_zero():
    assert Trace().end_time() == 0.0


def test_counters_accumulate():
    trace = Trace()
    trace.bump("ops")
    trace.bump("ops", 2.5)
    assert trace.counters["ops"] == 3.5


def test_by_label_aggregates_durations():
    trace = Trace()
    trace.record("core", "conv", 0.0, 10.0)
    trace.record("dma", "conv", 0.0, 4.0)
    trace.record("core", "pool", 10.0, 11.0)
    totals = trace.by_label()
    assert totals["conv"] == 14.0
    assert totals["pool"] == 1.0


def test_engines_listing():
    trace = Trace()
    trace.record("a", "x", 0.0, 1.0)
    trace.record("b", "x", 0.0, 1.0)
    assert trace.engines() == {"a", "b"}


# -- busy_time against its pinned oracle ---------------------------------------

ENGINES = ("core.g0", "dma.g0")


def _record_random(trace, rng, count, horizon):
    """Overlapping, nested and zero-length intervals on two engines."""
    for _ in range(count):
        engine = rng.choice(ENGINES)
        start = rng.uniform(0.0, horizon)
        shape = rng.random()
        if shape < 0.15:
            end = start  # zero-length
        elif shape < 0.45:
            end = start + rng.uniform(0.0, 0.7)  # short: often nested
        else:
            end = start + rng.expovariate(1.0 / 60.0)  # long: overlaps
        trace.record(engine, "x", start, end)


def _candidates(trace, engine, start, end):
    return sum(
        1 for interval in trace.intervals
        if interval.engine == engine
        and interval.end > start and interval.start < end
    )


def _assert_matches_reference(trace, engine, start, end):
    got = trace.busy_time(engine, start, end)
    want = trace._busy_time_reference(engine, start, end)
    assert got.hex() == want.hex(), (engine, start, end)


@pytest.mark.parametrize("seed", range(5))
def test_busy_time_is_bit_identical_to_the_reference(seed):
    rng = random.Random(seed)
    trace = Trace()
    _record_random(trace, rng, count=600, horizon=1000.0)
    window = 15.0  # the power loop's forward-moving windows
    for engine in ENGINES:
        start = 0.0
        while start < trace.end_time():
            _assert_matches_reference(trace, engine, start, start + window)
            start += window
        # a backward query resets the skip pointer
        _assert_matches_reference(trace, engine, 0.0, trace.end_time())
        _assert_matches_reference(trace, engine, 100.0, 700.0)
        for _ in range(50):
            lo, hi = sorted(rng.uniform(0.0, 1100.0) for _ in range(2))
            _assert_matches_reference(trace, engine, lo, hi)
    # the full-range query merged candidate sets well over 64 intervals
    assert _candidates(trace, ENGINES[0], 0.0, trace.end_time()) > 64


@pytest.mark.parametrize("seed", range(3))
def test_busy_time_tracks_the_reference_while_the_trace_grows(seed):
    # The power loop queries each closed window while later intervals are
    # still being recorded.
    rng = random.Random(seed)
    trace = Trace()
    window = 15.0
    for step in range(60):
        _record_random(trace, rng, count=12, horizon=(step + 1) * window)
        for engine in ENGINES:
            _assert_matches_reference(
                trace, engine, step * window, (step + 1) * window
            )
    for engine in ENGINES:
        _assert_matches_reference(trace, engine, 0.0, trace.end_time())
