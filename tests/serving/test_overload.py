"""Overload robustness: saturation acceptance, continuous batching and
per-class report guards.

The headline acceptance criterion lives here: at ~2x fleet capacity the
admission layer must keep interactive availability above its floor while
batch (then standard) sheds first, deterministically from one root seed.
"""

import pytest

from repro.obs import Observability
from repro.serving import (
    AdmissionPolicy,
    AutoscalerConfig,
    FleetConfig,
    FleetManager,
    InferenceServer,
    LoadSpec,
    RasConfig,
    SloClass,
    TenantConfig,
    generate_load,
)
from repro.serving.server import batch_service_time_ns

SERVICE_NS = 1.0e6  # 1 ms batch-1 service time => ~1000 rps per replica

ADMISSION = AdmissionPolicy(
    classes=(
        SloClass("interactive", deadline_ms=60.0, queue_limit=64,
                 shed_priority=0),
        SloClass("standard", deadline_ms=120.0, queue_limit=48,
                 shed_priority=1),
        SloClass("batch", deadline_ms=None, queue_limit=48, shed_priority=2),
    ),
    brownout_enter=0.5,
    brownout_exit=0.25,
)


def _tenants(coalesce_ms=2.0, max_batch=8):
    return [
        TenantConfig("app", "resnet50", groups=2, max_batch=max_batch,
                     sla_ms=50.0, coalesce_window_ms=coalesce_ms)
    ]


def _fleet(admission=ADMISSION, autoscaler=None, replicas=2, spares=0,
           obs=None):
    return FleetManager(
        _tenants(),
        config=FleetConfig(replicas=replicas, hot_spares=spares,
                           validate_on_open=False),
        ras=RasConfig(max_retries=2),
        obs=obs,
        service_times_ns={"app": SERVICE_NS},
        admission=admission,
        autoscaler=autoscaler,
    )


def _overload_trace(multiplier=1.0, seed=0, duration=0.5):
    """~2900 rps against 2 replicas x ~1467 rps batch-8 throughput ~= 2x
    capacity at multiplier 1.0 once the flash crowd lands."""
    specs = [
        LoadSpec("app", 500.0 * multiplier, slo_class="interactive",
                 shape="flash-crowd", flash_at_s=0.15, flash_duration_s=0.2,
                 flash_multiplier=4.0, flash_ramp_s=0.05),
        LoadSpec("app", 900.0 * multiplier, slo_class="standard"),
        LoadSpec("app", 1500.0 * multiplier, slo_class="batch", users=50),
    ]
    return generate_load(specs, duration_s=duration, seed=seed)


class TestSaturationAcceptance:
    """The ISSUE acceptance test: 2x capacity, interactive survives."""

    @pytest.fixture(scope="class")
    def report(self):
        return _fleet().run(_overload_trace())

    def test_fleet_is_actually_saturated(self, report):
        stats = report.tenants["app"]
        assert stats.shed > 0.15 * stats.offered

    def test_interactive_availability_above_floor(self, report):
        by_class = report.tenants["app"].by_class
        assert by_class["interactive"].availability >= 0.9

    def test_batch_sheds_first_and_most(self, report):
        by_class = report.tenants["app"].by_class
        shed_rate = {
            name: entry.shed / entry.offered
            for name, entry in by_class.items()
        }
        assert shed_rate["batch"] >= shed_rate["standard"]
        assert shed_rate["standard"] >= shed_rate["interactive"]
        assert shed_rate["batch"] > 0.2

    def test_interactive_never_brownout_shed(self, report):
        interactive = report.tenants["app"].by_class["interactive"]
        assert interactive.shed_for("brownout") == 0

    def test_class_conservation(self, report):
        for entry in report.tenants["app"].by_class.values():
            assert entry.served + entry.failed + entry.shed == entry.offered

    def test_brownout_engaged_and_backpressure_observed(self, report):
        assert report.max_brownout_level >= 1
        assert report.peak_backpressure > 0.5

    def test_same_seed_byte_identical(self, report):
        again = _fleet().run(_overload_trace())
        assert again.to_dict() == report.to_dict()

    def test_shed_rate_monotone_in_offered_overload(self):
        rates = []
        for multiplier in (0.5, 1.0, 1.5):
            stats = _fleet().run(
                _overload_trace(multiplier)
            ).tenants["app"]
            rates.append(stats.shed / stats.offered)
        assert rates == sorted(rates)


class TestAutoscaledOverload:
    # Shedding caps the served tail (interactive p99 ~25 ms) and holds
    # backpressure under the 0.75 scale-up threshold, so the vote must
    # come from p99 targets set below that shed-bounded tail.
    AUTOSCALER = AutoscalerConfig(
        min_active=1, max_active=4, eval_interval_ms=25.0,
        cooldown_ms=75.0,
        p99_targets_ms=(("interactive", 15.0), ("standard", 30.0)),
    )

    def test_autoscaler_absorbs_the_storm_without_flapping(self):
        report = _fleet(
            autoscaler=self.AUTOSCALER, replicas=2, spares=2
        ).run(_overload_trace())
        assert report.autoscale_ups >= 1
        assert report.autoscale_reversals <= 2
        assert report.final_healthy > 2

    def test_scaling_up_improves_availability(self):
        trace = _overload_trace()
        static = _fleet(replicas=2).run(trace).tenants["app"]
        scaled = _fleet(
            autoscaler=self.AUTOSCALER, replicas=2, spares=2
        ).run(trace).tenants["app"]
        assert scaled.served > static.served


class TestContinuousBatching:
    def test_zero_window_matches_legacy_bit_for_bit(self):
        trace = _overload_trace(multiplier=0.2)
        a = FleetManager(
            _tenants(coalesce_ms=0.0),
            config=FleetConfig(replicas=2, validate_on_open=False),
            service_times_ns={"app": SERVICE_NS},
        ).run(trace)
        b = FleetManager(
            _tenants(coalesce_ms=0.0),
            config=FleetConfig(replicas=2, validate_on_open=False),
            service_times_ns={"app": SERVICE_NS},
        ).run(trace)
        assert a.to_dict() == b.to_dict()

    def test_coalescing_window_raises_saturated_throughput(self):
        trace = _overload_trace()
        unbatched = FleetManager(
            _tenants(coalesce_ms=0.0, max_batch=1),
            config=FleetConfig(replicas=2, validate_on_open=False),
            service_times_ns={"app": SERVICE_NS},
            admission=ADMISSION,
        ).run(trace).tenants["app"]
        batched = _fleet().run(trace).tenants["app"]
        assert batched.served > 1.2 * unbatched.served

    def test_batch_service_time_sublinear(self):
        single = batch_service_time_ns(SERVICE_NS, 1)
        eight = batch_service_time_ns(SERVICE_NS, 8)
        assert single == SERVICE_NS
        assert SERVICE_NS < eight < 8 * SERVICE_NS

    def test_window_validation(self):
        with pytest.raises(ValueError, match="coalesce_window_ms"):
            TenantConfig("a", "resnet50", groups=2, coalesce_window_ms=-1.0)


class TestServerAdmission:
    """The single-server layer shares the same admission machinery."""

    def _server(self):
        return InferenceServer(
            _tenants(),
            service_times_ns={"app": SERVICE_NS},
            admission=ADMISSION,
        )

    def test_per_class_breakdown_present(self):
        reports = self._server().run(_overload_trace(duration=0.3))
        by_class = reports["app"].by_class
        assert set(by_class) == {"interactive", "standard", "batch"}
        for entry in by_class.values():
            assert entry.served + entry.failed + entry.shed == entry.offered

    def test_interactive_preferred_under_saturation(self):
        by_class = self._server().run(
            _overload_trace(duration=0.3)
        )["app"].by_class
        assert (
            by_class["interactive"].availability
            > by_class["batch"].availability
        )

    def test_shed_reasons_exported_to_metrics(self):
        obs = Observability()
        server = InferenceServer(
            _tenants(),
            service_times_ns={"app": SERVICE_NS},
            admission=ADMISSION,
            obs=obs,
        )
        reports = server.run(_overload_trace(duration=0.3))
        shed_total = obs.metrics.get("serving_shed_total")
        assert shed_total is not None
        assert shed_total.total() == reports["app"].shed


    def test_isolated_slices_do_not_share_brownout(self):
        # Tenant a floods its slice into brownout at the end of the trace;
        # tenant b's light batch-class slice must serve as it would alone.
        from repro.serving import Request

        flood = [
            Request(i, "a", 50e6 + i * 0.05e6, slo_class="standard")
            for i in range(200)
        ]
        light = [
            Request(200 + i, "b", i * 10e6, slo_class="batch")
            for i in range(20)
        ]
        trace = sorted(flood + light, key=lambda r: (r.arrival_ns, r.request_id))
        tenants = [
            TenantConfig("a", "resnet50", groups=2),
            TenantConfig("b", "resnet50", groups=2),
        ]
        times = {"a": SERVICE_NS, "b": SERVICE_NS}
        obs = Observability()
        both = InferenceServer(
            tenants, service_times_ns=times, admission=AdmissionPolicy(),
            obs=obs,
        ).run(trace)["b"]
        alone = InferenceServer(
            tenants, service_times_ns=times, admission=AdmissionPolicy(),
        ).run(light)["b"]
        assert (alone.completed, alone.shed) == (20, 0)
        assert (both.completed, both.shed, both.shed_reasons) == (20, 0, {})
        # The brownout gauges report the worst slice, not the last one.
        assert obs.metrics.get("serving_backpressure_peak").value() >= 0.85
        assert obs.metrics.get("serving_brownout_level").value() == 2


class TestReportGuards:
    """TenantReport / SloClassStats stay finite on empty + all-shed runs."""

    def test_empty_trace_report_is_finite(self):
        reports = InferenceServer(
            _tenants(), service_times_ns={"app": SERVICE_NS},
            admission=ADMISSION,
        ).run([])
        report = reports["app"]
        assert report.offered == 0
        assert report.availability == 1.0
        assert report.sla_violation_rate == 0.0
        assert report.throughput_per_s == 0.0
        assert report.by_class == {}

    def test_all_shed_class_stats_stay_finite(self):
        from repro.serving import SloClassStats

        entry = SloClassStats("batch", offered=5, shed=5)
        entry.record_shed("brownout")
        assert entry.availability == 0.0
        assert entry.p99_ms == 0.0
        entry.set_percentiles([], buckets=(1.0, 2.0))
        assert entry.p99_ms == 0.0  # no latencies -> percentiles untouched

    def test_zero_offered_class_availability_is_one(self):
        from repro.serving import SloClassStats

        assert SloClassStats("standard").availability == 1.0
        assert SloClassStats("standard").availability_while_healthy == 1.0
