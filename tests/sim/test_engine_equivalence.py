"""Fast engine vs pinned reference engine: byte-identical, not merely close.

The fast :class:`repro.sim.kernel.Simulator` batches same-timestamp
wakeups and counts dispatches; the
:class:`repro.sim.kernel_reference.ReferenceSimulator` is the original
one-pop-per-event loop. Both implement the same scheduling contract
(docs/sim-internals.md): the queue is ordered by ``(time, sequence)``,
ties resolve in scheduling order, never by object identity. These tests
enforce the contract two ways:

- property tests over seeded random process soups (timers, resource
  contention, ``AllOf`` joins, deliberate timestamp ties) must produce
  identical event logs and final clocks on both engines;
- full executor launches on a card built with each engine must produce
  byte-identical traces, counters and latencies (on the event path, with
  the closed-form launch substituted away).
"""

from __future__ import annotations

import random

import pytest

from repro.sim.kernel import AllOf, Resource, Simulator, Timeout
from repro.sim.kernel_reference import ReferenceSimulator


# ---------------------------------------------------------------------------
# seeded random process soups
# ---------------------------------------------------------------------------


def _scripts(seed: int) -> list[list[tuple[str, float]]]:
    """Deterministic per-worker op scripts; shared by both engine runs.

    Delays are drawn from a small pool on purpose: repeated values force
    same-timestamp ties (exercising the fast engine's batched drain and
    the tie-break rule).
    """
    rng = random.Random(seed)
    pool = [0.0, 1.0, 1.0, 2.5, 4.0, round(rng.uniform(0.1, 9.9), 3)]
    scripts = []
    for _ in range(8):
        script = [
            (rng.choice(["sleep", "acquire", "join", "signal"]), rng.choice(pool))
            for _ in range(rng.randint(3, 12))
        ]
        scripts.append(script)
    return scripts


def _run_soup(sim, seed: int):
    """Run the seeded soup on ``sim``; returns (final_time, event_log)."""
    log: list[tuple[float, int, str]] = []
    port = Resource(sim, capacity=2, name="port")

    def worker(wid: int, script):
        for op, delay in script:
            if op == "sleep":
                yield Timeout(delay)
            elif op == "acquire":
                grant = port.request()
                yield grant
                yield Timeout(delay)
                port.release()
            elif op == "join":
                # two timers at the same timestamp: a guaranteed tie
                yield AllOf([sim.timer(delay), sim.timer(delay)])
            elif op == "signal":
                yield sim.timer(delay, value=wid)
            log.append((sim.now, wid, op))

    for wid, script in enumerate(_scripts(seed)):
        sim.spawn(worker(wid, script), name=f"w{wid}")
    final = sim.run()
    return final, log


@pytest.mark.parametrize("seed", range(12))
def test_random_soups_identical_on_both_engines(seed):
    fast_final, fast_log = _run_soup(Simulator(), seed)
    ref_final, ref_log = _run_soup(ReferenceSimulator(), seed)
    assert fast_final == ref_final  # exact float equality, no tolerance
    assert fast_log == ref_log


@pytest.mark.parametrize("seed", [0, 7])
def test_random_soups_identical_under_run_until(seed):
    """Capping the clock mid-soup must stop both engines identically."""
    fast, ref = Simulator(), ReferenceSimulator()
    fast_log: list = []
    ref_log: list = []
    for sim, log in ((fast, fast_log), (ref, ref_log)):
        port = Resource(sim, capacity=1, name="port")

        def worker(wid, sim=sim, log=log, port=port):
            for delay in (1.0, 1.0, 2.0, 0.5):
                grant = port.request()
                yield grant
                yield Timeout(delay + wid * 0.25)
                port.release()
                log.append((sim.now, wid))

        for wid in range(6):
            sim.spawn(worker(wid), name=f"w{wid}")
        sim.run(until=2.75)
    assert fast.now == ref.now == 2.75
    assert fast_log == ref_log


# ---------------------------------------------------------------------------
# tie-breaking: (time, sequence) order, never object identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "engine", [Simulator, ReferenceSimulator], ids=["fast", "reference"]
)
def test_same_timestamp_wakeups_resolve_in_scheduling_order(engine):
    sim = engine()
    order: list[int] = []

    def sleeper(wid: int):
        yield Timeout(5.0)
        order.append(wid)

    for wid in range(16):
        sim.spawn(sleeper(wid), name=f"s{wid}")
    sim.run()
    assert order == list(range(16))


@pytest.mark.parametrize(
    "engine", [Simulator, ReferenceSimulator], ids=["fast", "reference"]
)
def test_interleaved_timer_ties_fire_in_scheduling_order(engine):
    """Timers scheduled from different processes at one timestamp fire in
    the order they were scheduled, not in object-identity order."""
    sim = engine()
    fired: list[str] = []

    def scheduler(tag: str):
        event = sim.timer(3.0, value=tag)
        got = yield event
        fired.append(got)

    for tag in ["a", "b", "c", "d"]:
        sim.spawn(scheduler(tag), name=tag)
    sim.run()
    assert fired == ["a", "b", "c", "d"]


def test_trace_record_assigns_monotonic_seq():
    from repro.sim.trace import Trace

    trace = Trace()
    for index in range(5):
        trace.record("mxu", "k", 1.0, 2.0)  # identical times on purpose
    assert [interval.seq for interval in trace.intervals] == list(range(5))
    keys = [(i.start, i.end, i.seq) for i in trace.intervals]
    assert sorted(keys) == keys


# ---------------------------------------------------------------------------
# full executor launches
# ---------------------------------------------------------------------------


def _launch(model: str, sim):
    """One cold-device launch on ``sim``; returns everything comparable."""
    from repro.core.config import dtu2_config
    from repro.core.accelerator import Accelerator
    from repro.models.zoo import build
    from repro.runtime.runtime import Device

    device = Device(Accelerator(chip=dtu2_config(), sim=sim))
    result = device.launch(device.compile(build(model), batch=1))
    accelerator = device.accelerator
    trace = accelerator.trace
    return {
        "latency_ms": result.latency_ms,
        "now": accelerator.sim.now,
        "intervals": [
            (i.engine, i.label, i.start, i.end, i.seq) for i in trace.intervals
        ],
        "counters": dict(trace.counters),
    }


@pytest.mark.parametrize("model", ["resnet50", "bert_large"])
def test_full_launch_byte_identical_across_engines(model, monkeypatch):
    from repro.runtime.executor import Executor

    # A fault-free launch would compute its kernel steps in closed form;
    # substitute that away so both engines run the per-group processes.
    monkeypatch.setattr(
        Executor, "_closed_form_applies", lambda self, jobs, groups: False
    )
    fast = _launch(model, Simulator())
    reference = _launch(model, ReferenceSimulator())
    assert fast["latency_ms"] == reference["latency_ms"]
    assert fast["now"] == reference["now"]
    assert fast["counters"] == reference["counters"]
    assert fast["intervals"] == reference["intervals"]


def test_accelerator_builds_fast_engine(monkeypatch):
    from repro.core.accelerator import Accelerator
    from repro.core.config import dtu2_config

    monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
    assert type(Accelerator(chip=dtu2_config()).sim) is Simulator


def test_dispatch_accounting_lines_up_between_engines():
    """Both engines dispatch the same number of wakeups on one workload."""
    fast_final, _ = _run_soup(fast := Simulator(), seed=3)
    ref_final, _ = _run_soup(ref := ReferenceSimulator(), seed=3)
    assert fast_final == ref_final
    assert fast.events_dispatched == ref.events_dispatched
    # the fast engine additionally counts distinct clock steps
    assert 0 < fast.time_steps <= fast.events_dispatched
