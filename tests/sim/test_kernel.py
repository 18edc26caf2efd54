"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import AllOf, Resource, SimulationError, Simulator, Timeout


def test_empty_simulator_runs_to_zero():
    sim = Simulator()
    assert sim.run() == 0.0


def test_single_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def process(sim):
        yield Timeout(42.0)
        seen.append(sim.now)

    sim.spawn(process(sim))
    sim.run()
    assert seen == [42.0]


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Timeout(-1.0)


def test_nan_timeout_rejected():
    """A NaN delay would wake the process at the current time."""
    with pytest.raises(ValueError, match="NaN"):
        Timeout(float("nan"))


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_nan_timer_rejected(engine):
    from repro.sim.kernel_reference import ReferenceSimulator

    sim = Simulator() if engine == "fast" else ReferenceSimulator()
    with pytest.raises(SimulationError, match="NaN"):
        sim.timer(float("nan"))
    with pytest.raises(SimulationError, match="negative"):
        sim.timer(-1.0)
    assert sim.run() == 0.0  # nothing was queued


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    marks = []

    def process(sim):
        for delay in (10.0, 5.0, 2.5):
            yield Timeout(delay)
            marks.append(sim.now)

    sim.spawn(process(sim))
    sim.run()
    assert marks == [10.0, 15.0, 17.5]


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def process(name, delay):
        yield Timeout(delay)
        order.append(name)
        yield Timeout(delay)
        order.append(name)

    sim.spawn(process("a", 3.0))
    sim.spawn(process("b", 2.0))
    sim.run()
    assert order == ["b", "a", "b", "a"]


def test_tie_break_is_spawn_order():
    sim = Simulator()
    order = []

    def process(name):
        yield Timeout(7.0)
        order.append(name)

    for name in ("first", "second", "third"):
        sim.spawn(process(name))
    sim.run()
    assert order == ["first", "second", "third"]


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    received = []
    gate = sim.event("gate")

    def waiter():
        value = yield gate
        received.append((sim.now, value))

    def firer():
        yield Timeout(9.0)
        gate.succeed("payload")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert received == [(9.0, "payload")]


def test_event_fired_twice_raises():
    sim = Simulator()
    gate = sim.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


def test_event_value_before_fire_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_waiting_on_already_fired_event_resumes_immediately():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(5)
    got = []

    def waiter():
        value = yield gate
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0.0, 5)]


def test_process_return_value_propagates_via_done_event():
    sim = Simulator()
    results = []

    def child():
        yield Timeout(1.0)
        return "child-result"

    def parent():
        child_process = sim.spawn(child())
        value = yield child_process
        results.append(value)

    sim.spawn(parent())
    sim.run()
    assert results == ["child-result"]


def test_allof_waits_for_every_event():
    sim = Simulator()
    done_at = []

    def firer(event, delay):
        yield Timeout(delay)
        event.succeed(delay)

    events = [sim.event(str(i)) for i in range(3)]

    def waiter():
        values = yield AllOf(events)
        done_at.append((sim.now, values))

    sim.spawn(waiter())
    for event, delay in zip(events, (5.0, 20.0, 10.0)):
        sim.spawn(firer(event, delay))
    sim.run()
    assert done_at == [(20.0, [5.0, 20.0, 10.0])]


def test_allof_with_prefired_events_is_immediate():
    sim = Simulator()
    events = [sim.event(), sim.event()]
    for event in events:
        event.succeed()
    woke = []

    def waiter():
        yield AllOf(events)
        woke.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert woke == [0.0]


def test_run_until_caps_clock():
    sim = Simulator()

    def process():
        yield Timeout(100.0)

    sim.spawn(process())
    assert sim.run(until=40.0) == 40.0
    # the queued wakeup survives and completes on the next run
    assert sim.run() == 100.0


def test_yield_garbage_raises():
    sim = Simulator()

    def bad():
        yield "not an event"

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


class TestResource:
    def test_capacity_one_serializes(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        spans = []

        def user(name):
            grant = resource.request()
            yield grant
            start = sim.now
            yield Timeout(10.0)
            resource.release()
            spans.append((name, start, sim.now))

        sim.spawn(user("a"))
        sim.spawn(user("b"))
        sim.run()
        assert spans == [("a", 0.0, 10.0), ("b", 10.0, 20.0)]

    def test_capacity_two_overlaps(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        finish = []

        def user():
            yield resource.request()
            yield Timeout(10.0)
            resource.release()
            finish.append(sim.now)

        for _ in range(2):
            sim.spawn(user())
        sim.run()
        assert finish == [10.0, 10.0]

    def test_try_acquire_takes_free_units_and_queues_nobody(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        assert resource.try_acquire() and resource.try_acquire()
        assert not resource.try_acquire()  # full: no event, no queue entry
        assert resource.in_use == 2 and resource.queue_length == 0
        waiter = resource.request()
        assert not waiter.fired and resource.queue_length == 1
        resource.release()  # hands the unit to the FIFO waiter
        assert waiter.fired and resource.in_use == 2
        resource.release()
        resource.release()
        assert resource.in_use == 0
        assert sim.run() == 0.0

    def test_release_without_request_raises(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_zero_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_fifo_grant_order(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def user(name, arrive):
            yield Timeout(arrive)
            yield resource.request()
            order.append(name)
            yield Timeout(5.0)
            resource.release()

        sim.spawn(user("late", 2.0))
        sim.spawn(user("early", 1.0))
        sim.spawn(user("first", 0.0))
        sim.run()
        assert order == ["first", "early", "late"]

    def test_queue_length_visible(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def holder():
            yield resource.request()
            yield Timeout(50.0)
            resource.release()

        def prober():
            yield Timeout(10.0)
            resource.request()  # enqueues, never granted inside window
            assert resource.queue_length == 1

        sim.spawn(holder())
        sim.spawn(prober())
        sim.run(until=20.0)
        assert resource.in_use == 1


def test_scheduling_into_past_raises():
    sim = Simulator()

    def jumper():
        yield Timeout(5.0)

    sim.spawn(jumper())
    sim.run()
    with pytest.raises(SimulationError):
        sim._schedule(1.0, None, None)


def test_deep_join_chain_runs_without_recursion():
    """A gate counts down in place but queues its process, so a long chain
    of joins (each link firing the next) never nests resumptions."""
    sim = Simulator()
    links = 3000
    events = [sim.event() for _ in range(links + 1)]

    def link(index):
        yield AllOf([events[index]])
        events[index + 1].succeed()

    for index in range(links):
        sim.spawn(link(index))

    def kick():
        yield Timeout(1.0)
        events[0].succeed()

    sim.spawn(kick())
    assert sim.run() == 1.0
    assert events[links].fired
