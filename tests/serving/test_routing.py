"""Fleet routing fast path: heap/reference equivalence and bounded depth.

The heap router's contract is *byte-identical behavior* to the pinned
reference scans (`repro.serving.routing.ReferenceRouter`), not merely
similar routing quality. Three layers of evidence:

- a seeded 512-replica churn harness drives both routers through the
  same quarantine/promote/drain/retire mutations and asserts every query
  (pick with exclusions, hedged picks past the clock, earliest_start,
  standby, drain_victim, due_repair) returns the same replica;
- tie-break regressions pin the deterministic orderings the fleet relies
  on (equal load -> lowest index; equal repair due -> lowest index);
- ``route`` (the parked / suspected / avoid preference order) is checked
  for both routers against a plain scan over every subset of the three
  sets and the hedge exclusions on four replicas;
- a whole-scenario byte-compare replays every quick chaos scenario
  through both implementations (the reference patched in where the fleet
  builds its ``HeapRouter``) and diffs the serialized scenario result —
  ``FleetReport`` with per-class ``SloClassStats``, overload, cap and
  SDC-control sweeps — as JSON.

``Backlog.full`` is checked against the unbounded sorted-list +
``bisect_right`` depth semantics its pruned heaps replaced.
"""

import itertools
import json
import random
from bisect import bisect_right, insort

import pytest

from repro.chaos import SCENARIOS, run_scenario, scenario_names
from repro.serving import fleet
from repro.serving.admission import AdmissionPolicy
from repro.serving.routing import (
    Backlog,
    FleetRouter,
    HeapRouter,
    ReferenceRouter,
    ReplicaStatus,
)
from repro.serving.server import RasConfig
from repro.serving.workload import Request


class FakeReplica:
    """The attribute surface the routers consume."""

    __slots__ = ("index", "status", "free_at", "repair_due_ns")

    def __init__(self, index, status=ReplicaStatus.ACTIVE):
        self.index = index
        self.status = status
        self.free_at = 0.0
        self.repair_due_ns = None


def _pair(n, standby=0):
    """Fresh (replicas, heap router, reference router) triple."""
    replicas = [FakeReplica(i) for i in range(n)]
    for replica in replicas[n - standby:]:
        replica.status = ReplicaStatus.STANDBY
    heap, reference = HeapRouter(), ReferenceRouter()
    heap.rebuild(replicas)
    reference.rebuild(replicas)
    return replicas, heap, reference


def _assert_same_pick(heap, reference, now, excluded=frozenset()):
    got = heap.pick(now, excluded)
    want = reference.pick(now, excluded)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.index == want.index
    return want


# ---------------------------------------------------------------------------
# tie-break regressions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("router_cls", [HeapRouter, ReferenceRouter])
def test_equal_load_breaks_ties_by_lowest_index(router_cls):
    replicas = [FakeReplica(i) for i in range(8)]
    router = router_cls()
    router.rebuild(replicas)
    # all idle at t=0: lowest index must win
    assert router.pick(0.0).index == 0
    # exclusions walk up the index order, never skipping
    assert router.pick(0.0, {0}).index == 1
    assert router.pick(0.0, {0, 1, 2}).index == 3
    # equally *busy* replicas tie-break on index too
    for replica in replicas:
        replica.free_at = 100.0
        router.update(replica)
    assert router.pick(0.0).index == 0
    assert router.pick(150.0, {0}).index == 1


@pytest.mark.parametrize("router_cls", [HeapRouter, ReferenceRouter])
def test_busy_replica_loses_to_later_idle_index(router_cls):
    replicas = [FakeReplica(i) for i in range(3)]
    router = router_cls()
    router.rebuild(replicas)
    router.advance(10.0)
    replicas[0].free_at = 50.0
    router.update(replicas[0])
    # replica 0 is busy until 50; replica 1 is free now and must win
    assert router.pick(10.0).index == 1
    # at t=50 replica 0 is free again and the index tie-break resumes
    router.advance(50.0)
    assert router.pick(50.0).index == 0


@pytest.mark.parametrize("router_cls", [HeapRouter, ReferenceRouter])
def test_equal_repair_due_breaks_ties_by_lowest_index(router_cls):
    replicas = [FakeReplica(i) for i in range(4)]
    router = router_cls()
    router.rebuild(replicas)
    for replica in (replicas[3], replicas[1]):
        replica.status = ReplicaStatus.QUARANTINED
        replica.repair_due_ns = 500.0
        router.update(replica)
    due = router.due_repair(500.0)
    assert due is not None and due.index == 1


def test_hedged_pick_past_clock_does_not_corrupt_state():
    # A hedge queries at a failure time beyond the routing clock; the
    # busy/idle split must survive the out-of-band query untouched.
    replicas = [FakeReplica(i) for i in range(4)]
    heap = HeapRouter()
    heap.rebuild(replicas)
    heap.advance(0.0)
    for replica in replicas[:3]:
        replica.free_at = 30.0
        heap.update(replica)
    replicas[3].free_at = 5.0
    heap.update(replicas[3])
    # hedge at t=40 (clock still 0): everyone is free, index 0 wins
    assert heap.pick(40.0, excluded={0}).index == 1
    # the clock never moved: a pick at t=6 still sees 0..2 busy
    assert heap.pick(6.0).index == 3
    assert heap.earliest_start(6.0) == 6.0


# ---------------------------------------------------------------------------
# seeded churn equivalence (satellite c)
# ---------------------------------------------------------------------------


def test_512_replica_churn_matches_reference_byte_for_byte():
    n = 512
    rng = random.Random(0xF1EE7)
    replicas, heap, reference = _pair(n, standby=24)
    now = 0.0
    for step in range(4000):
        now += rng.expovariate(1.0) * 1e5
        heap.advance(now)
        roll = rng.random()
        if roll < 0.55:
            # route one request, sometimes with failover exclusions
            excluded = set()
            if rng.random() < 0.3:
                excluded = {rng.randrange(n) for _ in range(rng.randrange(4))}
            picked = _assert_same_pick(heap, reference, now, excluded)
            if picked is not None:
                picked.free_at = max(picked.free_at, now) + rng.random() * 4e5
                heap.update(picked)
            assert heap.earliest_start(now) == reference.earliest_start(now)
        elif roll < 0.65:
            # hedged re-dispatch beyond the clock, clock not advanced
            hedge_at = now + rng.random() * 2e5
            _assert_same_pick(heap, reference, hedge_at)
        elif roll < 0.75:
            # quarantine a random active replica, maybe schedule repair
            victim = reference.pick(now)
            if victim is not None:
                victim.status = ReplicaStatus.QUARANTINED
                victim.repair_due_ns = (
                    now + rng.random() * 8e5 if rng.random() < 0.8 else None
                )
                heap.update(victim)
        elif roll < 0.85:
            # promote the standby the fleet would promote
            spare = reference.standby()
            assert (spare is None) == (heap.standby() is None)
            if spare is not None:
                assert heap.standby().index == spare.index
                spare.status = ReplicaStatus.ACTIVE
                spare.free_at = now
                heap.update(spare)
        elif roll < 0.93:
            # repair probe: both routers must surface the same due replica
            bound = now if rng.random() < 0.7 else None
            want = reference.due_repair(bound)
            got = heap.due_repair(bound)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.index == want.index
                if rng.random() < 0.6:  # repaired
                    want.status = ReplicaStatus.ACTIVE
                    want.free_at = now
                    want.repair_due_ns = None
                elif rng.random() < 0.5:  # probe failed, rescheduled
                    want.repair_due_ns = now + rng.random() * 8e5
                else:  # retired for good
                    want.status = ReplicaStatus.RETIRED
                    want.repair_due_ns = None
                heap.update(want)
        else:
            # autoscale drain of the highest-index active replica
            victim = reference.drain_victim()
            assert (victim is None) == (heap.drain_victim() is None)
            if victim is not None:
                assert heap.drain_victim().index == victim.index
                victim.status = ReplicaStatus.STANDBY
                heap.update(victim)
        assert heap.active_count() == reference.active_count()


# ---------------------------------------------------------------------------
# bounded depth tracking
# ---------------------------------------------------------------------------


def _subsets(n):
    return [
        frozenset(index for index in range(n) if mask >> index & 1)
        for mask in range(1 << n)
    ]


def _documented_route(replicas, now, excluded, parked, avoid, suspected):
    """The tier order FleetRouter.route documents, as a plain scan."""
    tiers = [
        soft for soft, present in (
            (suspected | avoid, suspected and avoid),
            (suspected, suspected),
            (avoid, avoid),
            (frozenset(), True),
        )
        if present
    ]
    for soft in tiers:
        allowed = [
            replica for replica in replicas
            if replica.status is ReplicaStatus.ACTIVE
            and replica.index not in excluded | parked | soft
        ]
        if allowed:
            return min(
                allowed, key=lambda r: (max(r.free_at, now), r.index)
            ).index
    return None


def test_route_follows_the_documented_tier_order_exhaustively():
    """Every subset of parked, avoid, suspected and excluded over four
    replicas: heap route == reference route == the documented order."""
    replicas, heap, reference = _pair(4)
    for replica, free_at in zip(replicas, (3.0, 0.0, 2.0, 0.0)):
        replica.free_at = free_at
        heap.update(replica)
    now = 1.0
    subsets = _subsets(len(replicas))
    for parked, avoid, suspected in itertools.product(subsets, repeat=3):
        for router in (heap, reference):
            router.parked, router.avoid = parked, avoid
            router.suspected = suspected
        for excluded in subsets:
            expected = _documented_route(
                replicas, now, excluded, parked, avoid, suspected
            )
            for router in (heap, reference):
                choice = router.route(now, excluded)
                assert (
                    None if choice is None else choice.index
                ) == expected, (router.name, parked, avoid, suspected,
                                excluded)


def test_route_issues_one_pick_per_tried_tier():
    """Route stops at the first tier with a candidate and never repeats
    a tier, so a traced run counts the picks the tiers imply."""
    replicas, heap, _ = _pair(3)
    calls = []
    pick = heap.pick

    def counting_pick(now, excluded=frozenset()):
        calls.append(frozenset(excluded))
        return pick(now, excluded)

    heap.pick = counting_pick
    heap.suspected = frozenset({0})
    assert heap.route(0.0).index == 1
    assert calls == [frozenset({0})]
    calls.clear()
    heap.avoid = frozenset({1})
    heap.parked = frozenset({2})
    assert heap.route(0.0).index == 1
    assert calls == [frozenset({0, 1, 2}), frozenset({0, 2})]
    calls.clear()
    heap.suspected = heap.avoid = frozenset({0, 1})
    assert heap.route(0.0).index == 0
    assert calls == [frozenset({0, 1, 2})] * 3 + [frozenset({2})]


def test_routable_count_discounts_parked_active_replicas():
    replicas, heap, reference = _pair(4, standby=1)
    for router in (heap, reference):
        assert router.routable_count() == 3
        router.parked = frozenset({0, 3})  # r3 is a standby
        assert router.routable_count() == 2
        router.parked = frozenset({0, 1, 2})
        assert router.routable_count() == 0


def _flat_backlog(limit: int) -> Backlog:
    return Backlog(["a"], RasConfig(queue_depth_limit=limit), None)


def test_backlog_full_matches_bisect_reference():
    rng = random.Random(99)
    request = Request(0, "a", 0.0)
    limits = (1, 2, 5, 8)
    backlogs = [_flat_backlog(limit) for limit in limits]
    unbounded: list[float] = []
    now = 0.0
    for _ in range(3000):
        now += rng.random() * 1e5
        for _ in range(rng.randrange(3)):
            finish = now + rng.random() * 5e5
            count = rng.randrange(1, 4)
            for backlog in backlogs:
                backlog.push([request] * count, finish)
            for _ in range(count):
                insort(unbounded, finish)
        # historical depth semantics: finishes strictly after `now`
        want = len(unbounded) - bisect_right(unbounded, now)
        for limit, backlog in zip(limits, backlogs):
            assert backlog.full("a", now) == (want >= limit)
            # pruning bounds memory: entries <= now are gone
            assert len(backlog.tenants["a"]) == want


def test_backlog_full_boundary_is_exclusive():
    request = Request(0, "a", 0.0)
    one, two = _flat_backlog(1), _flat_backlog(2)
    for backlog in (one, two):
        backlog.push([request], 10.0)
        backlog.push([request], 20.0)
    assert two.full("a", 9.0)
    # a finish exactly at `now` no longer occupies the queue
    assert not two.full("a", 10.0)
    assert one.full("a", 10.0)
    assert not one.full("a", 20.0)
    assert one.tenants["a"] == []


def test_backlog_books_a_batch_under_its_head_class():
    backlog = Backlog(["a"], RasConfig(), AdmissionPolicy())
    request = Request(0, "a", 0.0, slo_class="vision")
    backlog.push([request, request], 50.0)
    backlog.push([request], 60.0)
    assert list(backlog.classes) == ["vision"]
    assert len(backlog.classes_at(40.0)["vision"]) == 3
    assert len(backlog.classes_at(55.0)["vision"]) == 1
    assert len(backlog.classes_at(60.0)["vision"]) == 0
    assert not backlog.tenants["a"]  # admission replaces the flat check
    assert not backlog.full("a", 0.0)


def test_backlog_books_tenant_depth_for_the_flat_check():
    backlog = _flat_backlog(4)
    backlog.push([Request(0, "a", 0.0)] * 3, 50.0)
    assert not backlog.full("a", 40.0)
    backlog.push([Request(1, "a", 0.0)], 60.0)
    assert backlog.full("a", 40.0)
    assert not backlog.full("a", 50.0)
    assert not backlog.classes


def test_backlog_without_a_flat_limit_is_never_full():
    backlog = Backlog(["a"], RasConfig(), None)
    backlog.push([Request(0, "a", 0.0)] * 3, 50.0)
    assert not backlog.full("a", 40.0)
    assert not backlog.tenants["a"] and not backlog.classes


# ---------------------------------------------------------------------------
# whole-run byte equivalence (tentpole part 1)
# ---------------------------------------------------------------------------


def _result_json(name, seed):
    result = run_scenario(SCENARIOS[name], seed=seed)
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("scenario", scenario_names(quick=True))
def test_chaos_scenario_reports_byte_identical(scenario, monkeypatch):
    seeds = (0, 7)
    heap = [_result_json(scenario, seed) for seed in seeds]
    monkeypatch.setattr(fleet, "HeapRouter", ReferenceRouter)
    assert [_result_json(scenario, seed) for seed in seeds] == heap


def test_reference_router_implements_every_heap_router_query():
    """Whatever the fleet calls on its router, the reference answers by
    its own scan: every method HeapRouter defines is defined again on
    ReferenceRouter, bar the two sync hooks a stateless scan needs no
    body for (FleetRouter's no-op ``advance`` and ``update``)."""
    hooks = {"advance", "update"}
    for name, member in vars(HeapRouter).items():
        if name.startswith("_") or not callable(member):
            continue
        if name in hooks:
            assert getattr(ReferenceRouter, name) is getattr(FleetRouter, name)
        else:
            assert name in vars(ReferenceRouter), name


def _admission_fleet():
    """64 + 4 replicas shaped like the 1,088-replica hostbench fleet: a
    coalescing interactive tenant, a flash-crowd standard tenant and a
    diurnal batch tenant under SLO-class admission, at 1/16 the rates."""
    from repro.serving.admission import SloClass
    from repro.serving.loadgen import LoadSpec, generate_load
    from repro.serving.server import TenantConfig

    tenants = [
        TenantConfig("vision", "resnet50", groups=2, max_batch=8,
                     sla_ms=20.0, coalesce_window_ms=0.5),
        TenantConfig("nlp", "bert_large", groups=3, sla_ms=100.0),
        TenantConfig("detect", "yolo_v3", groups=3),
    ]
    admission = AdmissionPolicy(
        classes=(
            SloClass("interactive", deadline_ms=20.0, queue_limit=128,
                     shed_priority=0),
            SloClass("standard", deadline_ms=100.0, queue_limit=64,
                     shed_priority=1),
            SloClass("batch", deadline_ms=None, queue_limit=32,
                     shed_priority=2),
        ),
    )
    load = [
        LoadSpec(tenant="vision", rate_per_s=7_500.0,
                 slo_class="interactive", users=300),
        LoadSpec(tenant="detect", rate_per_s=1_900.0, slo_class="batch",
                 shape="diurnal", users=120, period_s=0.07, amplitude=0.5),
        LoadSpec(tenant="nlp", rate_per_s=2_500.0, slo_class="standard",
                 shape="flash-crowd", users=200, flash_at_s=0.035,
                 flash_duration_s=0.04, flash_multiplier=5.0,
                 flash_ramp_s=0.007),
    ]
    manager = fleet.FleetManager(
        tenants,
        config=fleet.FleetConfig(
            replicas=64, hot_spares=4, seed=2, validate_on_open=False,
        ),
        service_times_ns={"vision": 1.2e6, "nlp": 9.0e6, "detect": 20.0e6},
        admission=admission,
    )
    return manager, generate_load(load, duration_s=0.1, seed=6)


def test_admission_coalescing_fleet_byte_identical(monkeypatch):
    manager, trace = _admission_fleet()
    report = manager.run(trace)
    heap = json.dumps(report.to_dict(), sort_keys=True)
    # The flash crowd drives brownout through both shedable classes.
    assert report.max_brownout_level == 2
    assert report.tenants["nlp"].shed_reasons["brownout"] > 0
    assert report.tenants["detect"].shed_reasons["brownout"] > 0
    monkeypatch.setattr(fleet, "HeapRouter", ReferenceRouter)
    manager, trace = _admission_fleet()
    assert type(manager._router) is ReferenceRouter
    assert json.dumps(manager.run(trace).to_dict(), sort_keys=True) == heap


def test_heap_router_patch_seam_yields_reference(monkeypatch):
    from repro.serving.server import TenantConfig

    def build():
        return fleet.FleetManager(
            [TenantConfig("a", "resnet50", groups=1)],
            config=fleet.FleetConfig(replicas=1, validate_on_open=False),
            service_times_ns={"a": 1.0e6},
        )

    assert type(build()._router) is HeapRouter
    monkeypatch.setattr(fleet, "HeapRouter", ReferenceRouter)
    assert type(build()._router) is ReferenceRouter


def test_fleet_router_ignores_retired_env_var(monkeypatch):
    from repro.serving.server import TenantConfig

    monkeypatch.setenv("REPRO_FLEET_ROUTING", "reference")
    manager = fleet.FleetManager(
        [TenantConfig("a", "resnet50", groups=1)],
        config=fleet.FleetConfig(replicas=1, validate_on_open=False),
        service_times_ns={"a": 1.0e6},
    )
    assert type(manager._router) is HeapRouter
