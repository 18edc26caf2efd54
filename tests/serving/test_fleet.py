"""FleetManager: multi-device routing, failover, and the repair lifecycle.

The acceptance scenario lives in tests/integration/test_chaos.py; here we
exercise the fleet layer directly — bring-up identity, shared compile
cache, hedged failover, quarantine/promotion/reintegration, shedding with
zero capacity, determinism, and the exported fleet metrics.
"""

import math
from functools import partial

import pytest

import repro.serving.fleet as fleet_module
from repro.caching import COMPILE_CACHE, MEASUREMENT_CACHE, MeasurementCache
from repro.core.errors import ReproRuntimeError
from repro.faults import FaultPlan, FaultSchedule, StormPhase
from repro.obs import Observability
from repro.serving import (
    FleetConfig,
    FleetManager,
    LoadSpec,
    RasConfig,
    ReplicaStatus,
    Request,
    SloClass,
    TenantConfig,
    TrafficPattern,
    generate_trace,
    measure_service_time_ns,
)
from repro.serving.autoscale import AutoscalerConfig
from repro.serving.powercap import PowerCapConfig, PowerCapPhase
from repro.serving.sdc import SdcConfig

SERVICE = {"a": 1.0e6, "b": 5.0e6}
POWERCAP = partial(PowerCapConfig, fleet_budget_watts=400.0)
PHASE = partial(PowerCapPhase, start_s=0.1, end_s=0.2, budget_watts=300.0)
SLO_CLASS = partial(SloClass, "interactive", queue_limit=8, shed_priority=0)
TRAFFIC = partial(TrafficPattern, "a")
LOAD = partial(LoadSpec, "a", rate_per_s=100.0)


def _tenants():
    return [
        TenantConfig("a", "resnet50", groups=2, max_batch=1, sla_ms=50.0),
        TenantConfig("b", "unet", groups=3, sla_ms=None),
    ]


def _fleet(config=None, schedule=None, ras=None, obs=None):
    return FleetManager(
        _tenants(),
        config=config or FleetConfig(replicas=2, validate_on_open=False),
        schedule=schedule,
        ras=ras or RasConfig(max_retries=2, queue_depth_limit=64),
        obs=obs,
        service_times_ns=dict(SERVICE),
    )


def _trace(seed=0, rate_a=200.0, rate_b=40.0, duration=0.5):
    return generate_trace(
        [TrafficPattern("a", rate_a), TrafficPattern("b", rate_b)],
        duration_s=duration,
        seed=seed,
    )


KILL_SCHEDULE = FaultSchedule(
    phases=(StormPhase.kill(device=1, at_s=0.15, duration_s=0.2),)
)
KILL_CONFIG = FleetConfig(
    replicas=2, hot_spares=1, quarantine_threshold=2, repair_ms=60.0,
    validate_on_open=False,
)


def _count_opens(monkeypatch) -> list[str]:
    """Record the device id of every ``Device.open`` the fleet makes."""
    opened: list[str] = []
    real_open = fleet_module.Device.open

    def counting_open(name="i20", obs=None, device_id=None):
        opened.append(device_id)
        return real_open(name, obs=obs, device_id=device_id)

    monkeypatch.setattr(
        fleet_module.Device, "open", staticmethod(counting_open)
    )
    return opened


class TestBringUp:
    def test_replica_device_ids_are_stable_and_unique(self):
        fleet = _fleet(config=FleetConfig(replicas=3, validate_on_open=False))
        ids = [replica.device_id for replica in fleet._replicas]
        assert ids == ["i20-r0", "i20-r1", "i20-r2"]
        cards = [fleet._card(replica) for replica in fleet._replicas]
        assert [card.device_id for card in cards] == ids
        accelerators = {id(card.accelerator) for card in cards}
        assert len(accelerators) == 3  # distinct card instances

    def test_models_compile_once_across_replicas(self):
        hits0, misses0 = COMPILE_CACHE.stats.hits, COMPILE_CACHE.stats.misses
        fleet = _fleet(config=FleetConfig(replicas=4, validate_on_open=False))
        hits = COMPILE_CACHE.stats.hits - hits0
        misses = COMPILE_CACHE.stats.misses - misses0
        n_models = len(fleet.tenants)
        # One compile call per tenant model for the whole fleet (the
        # replicas are the same chip, so bring-up shares the compiled
        # object instead of re-hashing the graph per replica); each
        # lookup misses at most once (zero when a previous test already
        # cached the model).
        assert hits + misses == n_models
        assert misses <= n_models
        # One fleet-wide map from tenant to its shared CompiledModel.
        assert sorted(fleet._compiled) == sorted(fleet.tenants)

    def test_validate_on_open_records_bringup_launches(self, monkeypatch):
        opened = _count_opens(monkeypatch)
        fleet = FleetManager(
            _tenants(),
            config=FleetConfig(replicas=2, hot_spares=1, validate_on_open=True),
            service_times_ns=dict(SERVICE),
        )
        kinds = [event.kind for event in fleet._bringup_events]
        assert kinds == ["opened", "validated"] * 3
        # Every card opens at bring-up, in index order.
        assert opened == ["i20-r0", "i20-r1", "i20-r2"]

    def test_service_times_are_measured_on_the_fleet_device(self):
        # An i10 fleet serves at i10 speed: the measurement runs on the
        # fleet's device and is memoized under its own cache key.
        i20 = measure_service_time_ns("resnet50", 2)
        i10 = measure_service_time_ns("resnet50", 2, device="i10")
        assert i10 > i20
        fleet = FleetManager(
            _tenants()[:1],
            config=FleetConfig(replicas=1, device="i10", validate_on_open=False),
        )
        assert fleet.service_times_ns["a"] == i10
        assert MeasurementCache.key_for("resnet50", 2, "i10") in MEASUREMENT_CACHE
        assert MeasurementCache.key_for("resnet50", 2) in MEASUREMENT_CACHE

    def test_invalid_config_rejected(self):
        for kwargs in (
            {"replicas": 0},
            {"hot_spares": -1},
            {"quarantine_threshold": 0},
            {"repair_ms": 0.0},
        ):
            with pytest.raises(ReproRuntimeError, match="FleetConfig"):
                FleetConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "config, field",
        [
            (FleetConfig, "repair_ms"),
            (POWERCAP, "fleet_budget_watts"),
            (PHASE, "budget_watts"),
            (AutoscalerConfig, "eval_interval_ms"),
            (AutoscalerConfig, "cooldown_ms"),
            (SdcConfig, "screen_interval_ms"),
            (SdcConfig, "screen_cost_ms"),
            (SLO_CLASS, "deadline_ms"),
            (TRAFFIC, "rate_per_s"),
            (LOAD, "rate_per_s"),
            (LOAD, "period_s"),
            (partial(StormPhase, end_s=1.0, plan=FaultPlan()), "start_s"),
            (partial(StormPhase, start_s=0.0, plan=FaultPlan()), "end_s"),
        ],
    )
    def test_non_finite_config_values_rejected(self, config, field, value):
        # NaN slips past every `<= 0` check, and an infinite period or
        # budget is no setting at all: both must fail loudly at
        # construction, not run as if uncapped or with a NaN horizon.
        with pytest.raises(ReproRuntimeError, match=f"{field} must be finite"):
            config(**{field: value})

    def test_duplicate_tenants_rejected(self):
        tenants = [_tenants()[0], _tenants()[0]]
        with pytest.raises(ReproRuntimeError, match="duplicate"):
            FleetManager(tenants, service_times_ns=dict(SERVICE))

    def test_empty_tenants_rejected(self):
        with pytest.raises(ReproRuntimeError, match="at least one"):
            FleetManager([], service_times_ns=dict(SERVICE))

    @pytest.mark.parametrize("spares, target", [(0, 9), (0, 2), (1, 3)])
    def test_storm_beyond_the_fleet_rejected(self, spares, target):
        # r0..r{replicas + spares - 1} exist; a storm on any other index
        # would inject nothing.
        schedule = FaultSchedule(phases=(StormPhase.kill(target, 0.1, 0.1),))
        config = FleetConfig(
            replicas=2, hot_spares=spares, validate_on_open=False
        )
        with pytest.raises(ReproRuntimeError, match="storm targets"):
            _fleet(config=config, schedule=schedule)

    def test_storm_on_the_last_spare_accepted(self):
        schedule = FaultSchedule(phases=(StormPhase.kill(2, 0.1, 0.1),))
        config = FleetConfig(replicas=2, hot_spares=1, validate_on_open=False)
        assert _fleet(config=config, schedule=schedule).schedule is schedule


class TestLazyOpen:
    """A replica's card opens on its first launch, not at bring-up."""

    def test_only_the_compiling_card_opens_at_construction(self, monkeypatch):
        opened = _count_opens(monkeypatch)
        fleet = _fleet(
            config=FleetConfig(
                replicas=64, hot_spares=8, validate_on_open=False
            )
        )
        assert opened == ["i20-r0"]
        assert [
            replica.name for replica in fleet._replicas
            if replica.device is not None
        ] == ["r0"]
        kinds = [event.kind for event in fleet._bringup_events]
        assert kinds == ["opened"] * 72

    def test_repair_probes_open_exactly_the_probed_cards(self, monkeypatch):
        opened = _count_opens(monkeypatch)
        fleet = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG)
        report = fleet.run(_trace())
        probed = {
            event.device for event in report.events
            if event.kind in ("repaired", "repair_failed")
        }
        assert probed == {"r1"}
        assert opened == ["i20-r0", "i20-r1"]  # each card opened once
        assert {
            replica.name for replica in fleet._replicas
            if replica.device is not None
        } == {"r0"} | probed

    def test_unknown_device_still_fails_construction(self):
        with pytest.raises(ReproRuntimeError, match="unknown device"):
            _fleet(config=FleetConfig(device="i99", validate_on_open=False))


class TestQuietFleet:
    def test_no_faults_serves_everything(self):
        report = _fleet().run(_trace())
        for stats in report.tenants.values():
            assert stats.served == stats.offered
            assert stats.failed == 0 and stats.shed == 0
            assert stats.availability == 1.0
        assert report.hedged_requests == 0
        assert report.quarantines == 0
        assert report.min_healthy == 2

    def test_conservation_always_holds(self):
        report = _fleet(
            schedule=KILL_SCHEDULE, config=KILL_CONFIG
        ).run(_trace())
        for stats in report.tenants.values():
            assert stats.served + stats.failed + stats.shed == stats.offered

    def test_load_spreads_over_replicas(self):
        report = _fleet().run(_trace())
        served = [device.served for device in report.devices]
        assert all(count > 0 for count in served)


class TestFailoverLifecycle:
    def test_kill_drives_quarantine_repair_reintegrate(self):
        report = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG).run(_trace())
        transitions = report.transitions("r1")
        assert "quarantined" in transitions
        assert "repaired" in transitions
        assert "reintegrated" in transitions
        assert transitions.index("quarantined") < transitions.index("repaired")
        assert transitions.index("repaired") <= transitions.index("reintegrated")
        killed = report.device("r1")
        assert killed.quarantines == 1
        assert killed.final_status in ("active", "standby")

    def test_kill_loses_zero_requests(self):
        report = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG).run(_trace())
        for stats in report.tenants.values():
            assert stats.served == stats.offered
        assert report.hedged_requests > 0
        assert report.failovers >= report.hedged_requests

    def test_hot_spare_promoted_on_quarantine(self):
        report = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG).run(_trace())
        assert report.promotions == 1
        assert "promoted" in report.transitions("r2")
        assert report.min_healthy == 2  # the spare kept the pool at strength

    def test_no_spare_drops_healthy_count(self):
        config = FleetConfig(
            replicas=2, hot_spares=0, quarantine_threshold=2,
            repair_ms=60.0, validate_on_open=False,
        )
        report = _fleet(schedule=KILL_SCHEDULE, config=config).run(_trace())
        assert report.quarantines >= 1
        assert report.min_healthy == 1

    def test_zero_capacity_sheds_instead_of_crashing(self):
        # One replica, no spares, killed for the whole remaining trace: a
        # hedge has no other replica to go to, the first fatal
        # quarantines it and everything after is shed-no-capacity until
        # the post-trace repair drain.
        config = FleetConfig(
            replicas=1, hot_spares=0, quarantine_threshold=1,
            repair_ms=1000.0, validate_on_open=False,
        )
        schedule = FaultSchedule(
            phases=(StormPhase.kill(device=0, at_s=0.1, duration_s=0.9),)
        )
        report = _fleet(schedule=schedule, config=config).run(_trace())
        stats = report.tenants["a"]
        assert stats.shed_no_capacity > 0
        assert stats.shed >= stats.shed_no_capacity
        assert stats.served + stats.failed + stats.shed == stats.offered
        assert report.min_healthy == 0
        # the drain still ran the repair probe after the storm ended
        assert report.transitions("r0")[-1] == "reintegrated"

    def test_repeated_probe_failures_retire_the_board(self):
        # Repair probes land inside the storm window -> every probe
        # faults -> the board retires after MAX_REPAIR_ATTEMPTS.
        config = FleetConfig(
            replicas=2, hot_spares=0, quarantine_threshold=1,
            repair_ms=10.0, validate_on_open=False,
        )
        schedule = FaultSchedule(
            phases=(StormPhase.kill(device=1, at_s=0.05, duration_s=10.0),)
        )
        report = _fleet(schedule=schedule, config=config).run(_trace())
        assert report.retirements == 1
        assert report.device("r1").final_status == ReplicaStatus.RETIRED.value
        assert report.transitions("r1")[-1] == "retired"
        assert report.repair_failures == fleet_module.MAX_REPAIR_ATTEMPTS


class TestDeterminism:
    def test_same_seed_same_report(self):
        trace = _trace()
        first = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG).run(trace)
        second = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG).run(trace)
        assert first.to_dict() == second.to_dict()

    def test_rerun_same_manager_is_reproducible(self):
        trace = _trace()
        fleet = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG)
        assert fleet.run(trace).to_dict() == fleet.run(trace).to_dict()

    def test_different_seed_changes_outcomes(self):
        trace = _trace()
        base = dict(
            replicas=2, hot_spares=1, quarantine_threshold=2,
            repair_ms=60.0, validate_on_open=False,
        )
        first = _fleet(
            schedule=KILL_SCHEDULE, config=FleetConfig(seed=0, **base)
        ).run(trace)
        second = _fleet(
            schedule=KILL_SCHEDULE, config=FleetConfig(seed=1, **base)
        ).run(trace)
        assert first.to_dict() != second.to_dict()


class TestTraceValidation:
    def test_non_monotone_arrivals_rejected(self):
        fleet = _fleet()
        trace = [
            Request(request_id=0, tenant="a", arrival_ns=2e6),
            Request(request_id=1, tenant="a", arrival_ns=1e6),
        ]
        with pytest.raises(ReproRuntimeError, match="non-decreasing"):
            fleet.run(trace)

    def test_unknown_tenant_rejected(self):
        fleet = _fleet()
        trace = [Request(request_id=0, tenant="ghost", arrival_ns=0.0)]
        with pytest.raises(ReproRuntimeError, match="unknown tenant"):
            fleet.run(trace)

    @pytest.mark.parametrize(
        "bad, at",
        # +inf last: nothing after it can fail the arrival-order check.
        [(math.nan, 3), (math.inf, 5), (-math.inf, 3)],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_arrival_rejected(self, bad, at):
        fleet = _fleet()
        trace = [
            Request(request_id=i, tenant="a", arrival_ns=i * 1e5)
            for i in range(6)
        ]
        trace[at] = Request(request_id=at, tenant="a", arrival_ns=bad)
        with pytest.raises(
            ReproRuntimeError,
            match=rf"request {at}: arrival_ns must be finite",
        ):
            fleet.run(trace)


class TestFleetObservability:
    def test_registry_mirrors_the_report(self):
        obs = Observability()
        report = _fleet(
            schedule=KILL_SCHEDULE, config=KILL_CONFIG, obs=obs
        ).run(_trace())
        registry = obs.metrics
        assert registry.get("fleet_replicas").value() == 3
        assert (
            registry.get("fleet_healthy_replicas").value()
            == report.final_healthy
        )
        assert (
            registry.get("fleet_min_healthy_replicas").value()
            == report.min_healthy
        )
        assert (
            registry.get("fleet_failovers_total").total() == report.failovers
        )
        assert (
            registry.get("fleet_hedged_requests_total").total()
            == report.hedged_requests
        )
        assert (
            registry.get("fleet_quarantines_total").total()
            == report.quarantines
        )
        for name, stats in report.tenants.items():
            assert registry.get("fleet_requests_total").value(
                tenant=name, status="served"
            ) == stats.served
            assert registry.get("fleet_availability").value(
                tenant=name
            ) == stats.availability

    def test_per_device_launch_counters_distinguish_replicas(self):
        obs = Observability()
        FleetManager(
            _tenants(),
            config=FleetConfig(replicas=2, validate_on_open=True),
            obs=obs,
            service_times_ns=dict(SERVICE),
        )
        launches = obs.metrics.get("runtime_launches_total")
        devices = {
            labels["device"]
            for labels, value in launches.samples()
            if labels["status"] == "ok" and value == 1.0
        }
        assert devices == {"i20-r0", "i20-r1"}
