"""RAS layer of the inference server: retries, shedding, circuit breaking.

Includes the end-to-end acceptance test: >= 1 % transient DMA + ECC
faults injected into a two-tenant serving run, survived by retries and
circuit breaking with a bounded SLA violation rate and exact accounting
of every failed / retried / shed / degraded request.
"""

import dataclasses
import json
from unittest import mock

import pytest

from repro.faults import FaultPlan
from repro.serving import (
    InferenceServer,
    RasConfig,
    TenantConfig,
    TenantHealth,
    TrafficPattern,
    generate_trace,
)
from repro.serving.server import TRANSFERS_PER_REQUEST

SERVICE = {"a": 1.0e6, "b": 10.0e6}  # 1 ms and 10 ms service times


def _tenants(sla_a=20.0, max_batch_a=4):
    return [
        TenantConfig("a", "resnet50", groups=2, max_batch=max_batch_a, sla_ms=sla_a),
        TenantConfig("b", "unet", groups=3, sla_ms=100.0),
    ]


def _server(plan=None, ras=None, isolated=True, **tenant_kwargs):
    return InferenceServer(
        _tenants(**tenant_kwargs),
        isolated=isolated,
        service_times_ns=dict(SERVICE),
        fault_plan=plan,
        ras=ras,
    )


def _trace(seed=0, rate_a=300.0, rate_b=40.0, duration=1.0):
    return generate_trace(
        [TrafficPattern("a", rate_a), TrafficPattern("b", rate_b)],
        duration_s=duration,
        seed=seed,
    )


class TestZeroFaultDefault:
    def test_no_plan_and_disabled_plan_identical(self):
        trace = _trace()
        plain = _server().run(trace)
        zeroed = _server(plan=FaultPlan()).run(trace)
        for name in ("a", "b"):
            assert plain[name] == zeroed[name]

    def test_no_faults_means_no_ras_counters(self):
        reports = _server().run(_trace())
        for report in reports.values():
            assert report.failed == 0
            assert report.retried == 0
            assert report.shed == 0
            assert report.degraded == 0
            assert report.availability == 1.0


def _json(reports):
    return json.dumps(
        {name: dataclasses.asdict(r) for name, r in reports.items()},
        sort_keys=True,
    )


class TestAttemptPath:
    """Attempt outcomes come from per-batch-size odds, not a plan walk."""

    @pytest.mark.parametrize("isolated", [True, False])
    @pytest.mark.parametrize(
        "rates",
        [
            {"sdc_gemm_rate": 0.3, "sdc_dma_rate": 0.2, "sdc_sparse_rate": 0.1},
            {"core_slowdown_rate": 0.5},
            {"sync_loss_rate": 0.5},
        ],
    )
    def test_plans_without_transient_or_fatal_rates_match_no_plan(
        self, isolated, rates
    ):
        # Such a plan is enabled, yet an attempt draws nothing and
        # changes no health state: the reports equal the plan-less run.
        plan = FaultPlan(seed=7, **rates)
        assert plan.enabled
        trace = _trace(rate_a=900.0)
        plain = _server(isolated=isolated).run(trace)
        planned = _server(plan=plan, isolated=isolated).run(trace)
        assert _json(planned) == _json(plain)

    def test_odds_compound_the_plan_rates_per_batch_size(self):
        plan = TestFaultCampaign.PLAN
        server = _server(plan=plan)
        for batch in range(1, 9):
            events = TRANSFERS_PER_REQUEST * batch
            assert server.attempt_odds(batch) == (
                1 - (1 - plan.fatal_event_rate) ** events,
                1 - (1 - plan.transient_event_rate) ** events,
            )

    def test_no_plan_has_zero_odds(self):
        server = _server()
        assert [server.attempt_odds(b) for b in (1, 4)] == [(0.0, 0.0)] * 2

    def test_plan_walks_do_not_grow_with_the_trace(self):
        # Guard against re-deriving the plan per attempt: the number of
        # dataclasses.fields walks on the plan path during a run must not
        # depend on how many requests the run serves.
        counts = []
        for duration in (1.0, 4.0):
            trace = _trace(rate_a=800.0, rate_b=200.0, duration=duration)
            server = _server(plan=TestFaultCampaign.PLAN, ras=RasConfig())
            with mock.patch(
                "repro.faults.plan.fields", wraps=dataclasses.fields
            ) as walk:
                reports = server.run(trace)
            assert sum(r.retried for r in reports.values()) > 0
            counts.append((len(trace), walk.call_count))
        (short, short_walks), (long, long_walks) = counts
        assert 900 < short and 3600 < long
        assert short_walks == long_walks


class TestFaultCampaign:
    # >= 1 % transient DMA + ECC fault rates, plus rarer fatal faults.
    PLAN = FaultPlan(
        seed=11,
        dma_corrupt_rate=0.01,
        ecc_ce_rate=0.01,
        dma_abort_rate=0.0002,
        ecc_ue_rate=0.0002,
    )
    RAS = RasConfig(max_retries=3, queue_depth_limit=64)

    def test_two_tenant_campaign_survives_with_bounded_sla(self):
        trace = _trace()
        reports = _server(plan=self.PLAN, ras=self.RAS).run(trace)
        offered = {
            name: sum(1 for r in trace if r.tenant == name) for name in ("a", "b")
        }
        for name in ("a", "b"):
            report = reports[name]
            # exact accounting: every offered request lands in one bucket
            assert report.completed + report.failed + report.shed == offered[name]
            # faults actually flowed: retries happened and were survived
            assert report.completed > 0
            # SLA violation rate of completed requests stays bounded: the
            # retries that absorb transients cost bounded extra latency.
            assert report.sla_violation_rate < 0.10
            # batching compounds per-event rates over 16*batch events, so a
            # few requests exhaust their retries; most are absorbed.
            assert report.availability > 0.90
            assert report.retried > report.failed
        # with per-event rates compounded over a request, retries must fire
        assert sum(reports[n].retried for n in reports) > 0

    def test_same_plan_and_seed_reproduces_exactly(self):
        trace = _trace()
        first = _server(plan=self.PLAN, ras=self.RAS).run(trace)
        second = _server(plan=self.PLAN, ras=self.RAS).run(trace)
        assert first == second

    def test_rerun_on_same_server_is_deterministic(self):
        trace = _trace()
        server = _server(plan=self.PLAN, ras=self.RAS)
        assert server.run(trace) == server.run(trace)

    def test_different_seed_changes_fault_pattern(self):
        trace = _trace()
        other = FaultPlan(
            seed=12,
            dma_corrupt_rate=0.01, ecc_ce_rate=0.01,
            dma_abort_rate=0.0002, ecc_ue_rate=0.0002,
        )
        first = _server(plan=self.PLAN, ras=self.RAS).run(trace)
        second = _server(plan=other, ras=self.RAS).run(trace)
        assert first != second

    def test_shared_mode_also_survives(self):
        trace = _trace()
        reports = _server(plan=self.PLAN, ras=self.RAS, isolated=False).run(trace)
        offered = {
            name: sum(1 for r in trace if r.tenant == name) for name in ("a", "b")
        }
        for name in ("a", "b"):
            report = reports[name]
            assert report.completed + report.failed + report.shed == offered[name]

    def test_retries_improve_availability(self):
        trace = _trace()
        no_retry = _server(
            plan=self.PLAN, ras=RasConfig(max_retries=0)
        ).run(trace)
        with_retry = _server(
            plan=self.PLAN, ras=RasConfig(max_retries=3)
        ).run(trace)
        assert (
            with_retry["a"].availability + with_retry["b"].availability
            >= no_retry["a"].availability + no_retry["b"].availability
        )
        assert no_retry["a"].failed + no_retry["b"].failed > 0


class TestAdmissionControl:
    def test_overload_sheds_instead_of_queueing_forever(self):
        # tenant a: 1 ms service, offered 3000/s -> 3x overload
        trace = generate_trace([TrafficPattern("a", 3000.0)], duration_s=1.0)
        unlimited = _server().run(trace)["a"]
        limited = _server(ras=RasConfig(queue_depth_limit=8)).run(trace)["a"]
        assert limited.shed > 0
        assert limited.completed + limited.shed == len(trace)
        # shedding keeps the served requests' tail latency bounded
        assert limited.p99_ms < unlimited.p99_ms

    def test_no_shedding_under_light_load(self):
        trace = generate_trace([TrafficPattern("a", 50.0)], duration_s=1.0)
        report = _server(ras=RasConfig(queue_depth_limit=8)).run(trace)["a"]
        assert report.shed == 0


class TestCircuitBreaker:
    def test_health_trips_after_threshold(self):
        health = TenantHealth(groups=3, threshold=2, min_groups=1)
        assert not health.record_failure(0)
        assert health.record_failure(0)  # second consecutive failure trips
        assert health.available == 2
        assert health.degraded
        assert health.breaker_trips == 1

    def test_success_clears_streaks(self):
        health = TenantHealth(groups=2, threshold=2, min_groups=1)
        health.record_failure(0)
        health.record_success()
        assert not health.record_failure(0)
        assert health.available == 2

    def test_never_degrades_below_floor(self):
        health = TenantHealth(groups=2, threshold=1, min_groups=1)
        assert health.record_failure(0)
        assert health.available == 1
        assert not health.record_failure(0)  # at the floor: no further trips
        assert health.available == 1

    def test_fatal_storm_degrades_but_keeps_serving(self):
        # high fatal rate: breakers trip, the slice degrades, requests
        # keep completing on the remaining groups at the degraded time.
        plan = FaultPlan(seed=5, dma_abort_rate=0.01)
        ras = RasConfig(max_retries=1, breaker_threshold=2)
        trace = generate_trace([TrafficPattern("a", 200.0)], duration_s=1.0)
        server = InferenceServer(
            _tenants(sla_a=None),
            service_times_ns=dict(SERVICE),
            degraded_service_times_ns={("a", 1): 1.8e6},
            fault_plan=plan,
            ras=ras,
        )
        report = server.run(trace)["a"]
        assert report.failed > 0
        assert report.degraded > 0  # some requests served on a degraded slice
        assert report.completed > 0
        assert report.completed + report.failed == len(trace)

    def test_degraded_service_time_defaults_to_linear_scaling(self):
        server = _server()
        assert server._service_time("a", 2) == SERVICE["a"]
        assert server._service_time("a", 1) == pytest.approx(2 * SERVICE["a"])


class TestBreakerRecovery:
    """Slot recovery + full reset: the paths fleet repair drives."""

    def _tripped(self):
        health = TenantHealth(groups=3, threshold=1, min_groups=1)
        assert health.record_failure(0)
        assert health.available == 2
        return health

    def test_restore_group_reintegrates_one_slot(self):
        health = self._tripped()
        assert health.restore_group()
        assert health.available == 3
        assert not health.degraded
        assert len(health._failures) == 3

    def test_restored_slot_rejoins_with_a_clean_streak(self):
        health = TenantHealth(groups=3, threshold=2, min_groups=1)
        health.record_failure(0)
        assert health.record_failure(0)  # trips: available 3 -> 2
        health.record_failure(0)  # streak 1 building on a surviving slot
        assert health.restore_group()
        # the rejoined slot (appended last) starts at streak 0: one
        # failure does not trip it, a second consecutive one does
        assert not health.record_failure(2)
        assert health.record_failure(2)

    def test_restore_at_full_strength_is_a_noop(self):
        health = TenantHealth(groups=2, threshold=2, min_groups=1)
        assert not health.restore_group()
        assert health.available == 2
        assert len(health._failures) == 2

    def test_restore_is_incremental(self):
        health = TenantHealth(groups=4, threshold=1, min_groups=1)
        health.record_failure(0)
        health.record_failure(0)
        assert health.available == 2
        assert health.restore_group()
        assert health.available == 3
        assert health.restore_group()
        assert health.available == 4
        assert not health.restore_group()

    def test_reset_restores_full_strength_and_clears_streaks(self):
        health = self._tripped()
        health.record_failure(0)  # partial streak on a live slot
        health.reset()
        assert health.available == health.configured == 3
        assert not health.degraded
        assert health._failures == [0, 0, 0]
        # a single failure does not instantly re-trip post-reset streaks
        health_soft = TenantHealth(groups=2, threshold=2, min_groups=1)
        health_soft.record_failure(0)
        health_soft.reset()
        assert not health_soft.record_failure(0)

    def test_reset_preserves_trip_history(self):
        health = self._tripped()
        trips = health.breaker_trips
        assert trips == 1
        health.reset()
        assert health.breaker_trips == trips  # cumulative, not state
