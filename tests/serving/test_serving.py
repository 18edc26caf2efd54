"""Tests for the cloud-serving simulation (workload, queueing, isolation)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving import (
    InferenceServer,
    Request,
    TenantConfig,
    TrafficPattern,
    batch_service_time_ns,
    generate_trace,
)

SERVICE = {"a": 1.0e6, "b": 10.0e6}  # 1 ms and 10 ms service times


def _tenants(max_batch_a=1, sla_a=None):
    return [
        TenantConfig("a", "resnet50", groups=1, max_batch=max_batch_a, sla_ms=sla_a),
        TenantConfig("b", "unet", groups=3),
    ]


def _server(isolated=True, **kwargs):
    return InferenceServer(
        _tenants(**kwargs), isolated=isolated, service_times_ns=dict(SERVICE)
    )


class TestWorkload:
    def test_trace_sorted_and_deterministic(self):
        patterns = [TrafficPattern("a", 100.0), TrafficPattern("b", 50.0)]
        first = generate_trace(patterns, duration_s=1.0, seed=7)
        second = generate_trace(patterns, duration_s=1.0, seed=7)
        assert first == second
        arrivals = [request.arrival_ns for request in first]
        assert arrivals == sorted(arrivals)

    def test_rate_approximately_respected(self):
        trace = generate_trace([TrafficPattern("a", 200.0)], duration_s=5.0)
        assert 800 < len(trace) < 1200  # ~1000 expected

    def test_different_seeds_differ(self):
        patterns = [TrafficPattern("a", 100.0)]
        assert generate_trace(patterns, 1.0, seed=1) != generate_trace(
            patterns, 1.0, seed=2
        )

    def test_bursty_preserves_mean_rate_roughly(self):
        smooth = generate_trace([TrafficPattern("a", 200.0)], 5.0)
        bursty = generate_trace(
            [TrafficPattern("a", 200.0, burstiness=4.0)], 5.0
        )
        assert 0.4 < len(bursty) / len(smooth) < 2.5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TrafficPattern("a", -1.0)
        with pytest.raises(ValueError):
            TrafficPattern("a", 10.0, burstiness=0.5)
        with pytest.raises(ValueError):
            generate_trace([TrafficPattern("a", 10.0)], duration_s=0.0)

    def test_zero_rate_pattern_generates_nothing(self):
        trace = generate_trace(
            [TrafficPattern("a", 0.0), TrafficPattern("b", 50.0)],
            duration_s=1.0, seed=3,
        )
        assert trace
        assert all(request.tenant == "b" for request in trace)


class TestBatchScaling:
    def test_batch_time_sublinear(self):
        base = 1.0e6
        assert batch_service_time_ns(base, 1) == base
        per_sample_8 = batch_service_time_ns(base, 8) / 8
        assert per_sample_8 < base

    def test_batch_time_monotone_total(self):
        base = 1.0e6
        totals = [batch_service_time_ns(base, batch) for batch in (1, 2, 4, 8)]
        assert totals == sorted(totals)

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_service_time_ns(1.0, 0)


class TestQueueing:
    def test_idle_server_latency_equals_service_time(self):
        # At 5 req/s vs a 1 ms service time, the median request finds the
        # server idle (occasional Poisson clumps may queue the tail).
        trace = generate_trace([TrafficPattern("a", 5.0)], duration_s=2.0)
        report = _server().run(trace)["a"]
        assert report.p50_ms == pytest.approx(1.0, rel=0.01)

    def test_overload_queues_grow(self):
        # service 1 ms -> capacity 1000/s; offer 2000/s
        trace = generate_trace([TrafficPattern("a", 2000.0)], duration_s=1.0)
        report = _server().run(trace)["a"]
        assert report.p99_ms > 10.0

    def test_batching_restores_overloaded_tenant(self):
        trace = generate_trace([TrafficPattern("a", 2000.0)], duration_s=1.0)
        unbatched = _server().run(trace)["a"]
        batched = _server(max_batch_a=8).run(trace)["a"]
        assert batched.p99_ms < unbatched.p99_ms
        assert batched.mean_batch > 1.5

    def test_sla_accounting(self):
        trace = generate_trace([TrafficPattern("a", 2000.0)], duration_s=1.0)
        report = _server(sla_a=2.0).run(trace)["a"]
        assert report.sla_violations > 0
        assert 0 < report.sla_violation_rate <= 1.0

    def test_all_requests_complete(self):
        trace = generate_trace(
            [TrafficPattern("a", 300.0), TrafficPattern("b", 20.0)],
            duration_s=1.0,
        )
        reports = _server().run(trace)
        assert reports["a"].completed + reports["b"].completed == len(trace)


class TestSharedQueueBatching:
    """Shared mode honours max_batch by coalescing same-tenant waiters."""

    def test_shared_mode_batches_under_load(self):
        trace = generate_trace([TrafficPattern("a", 2000.0)], duration_s=1.0)
        report = _server(isolated=False, max_batch_a=8).run(trace)["a"]
        assert report.mean_batch > 1.5

    def test_shared_batching_cuts_tail_latency(self):
        trace = generate_trace([TrafficPattern("a", 2000.0)], duration_s=1.0)
        unbatched = _server(isolated=False).run(trace)["a"]
        batched = _server(isolated=False, max_batch_a=8).run(trace)["a"]
        assert batched.p99_ms < unbatched.p99_ms

    def test_shared_max_batch_respected(self):
        trace = generate_trace([TrafficPattern("a", 3000.0)], duration_s=0.5)
        server = _server(isolated=False, max_batch_a=4)
        completed, _ = server._run_queue(trace, "shared")
        assert max(record.batch_size for record in completed) <= 4
        assert len(completed) == len(trace)

    def test_shared_batching_never_reorders_other_tenants(self):
        trace = generate_trace(
            [TrafficPattern("a", 1500.0), TrafficPattern("b", 50.0)],
            duration_s=0.5,
        )
        reports = _server(isolated=False, max_batch_a=8).run(trace)
        assert reports["a"].completed + reports["b"].completed == len(trace)


class TestThroughputHorizon:
    """Throughput uses the service horizon (max finish), not last arrival."""

    def test_backlogged_burst_uses_finish_horizon(self):
        # 20 requests all arrive in the first microsecond; service is
        # 10 ms each, so the run actually spans ~200 ms.  Dividing by the
        # last *arrival* would report a ~million-requests/s throughput.
        trace = [
            Request(request_id=i, tenant="b", arrival_ns=float(i))
            for i in range(20)
        ]
        report = _server().run(trace)["b"]
        assert report.completed == 20
        assert report.throughput_per_s == pytest.approx(20 / 0.2, rel=0.01)

    def test_horizon_is_max_finish_over_all_tenants(self):
        # tenant a finishes fast, tenant b drags the horizon out
        trace = [
            Request(request_id=0, tenant="a", arrival_ns=0.0),
            Request(request_id=1, tenant="b", arrival_ns=0.0),
        ]
        reports = _server().run(trace)
        # horizon = 10 ms (tenant b's single service)
        assert reports["a"].throughput_per_s == pytest.approx(100.0, rel=0.01)
        assert reports["b"].throughput_per_s == pytest.approx(100.0, rel=0.01)

    def test_empty_trace_reports_zero_throughput(self):
        reports = _server().run([])
        assert reports["a"].completed == 0
        assert reports["a"].throughput_per_s == 0.0


class TestIsolation:
    """§IV-E: isolation prevents cross-tenant interference."""

    def _trace(self):
        return generate_trace(
            [TrafficPattern("a", 300.0), TrafficPattern("b", 60.0)],
            duration_s=1.0,
        )

    def test_shared_queue_inflates_light_tenant_p99(self):
        trace = self._trace()
        isolated = _server(isolated=True).run(trace)["a"]
        shared = _server(isolated=False).run(trace)["a"]
        assert shared.p99_ms > 3 * isolated.p99_ms

    def test_isolated_light_tenant_unaffected_by_heavy_load(self):
        light_only = generate_trace([TrafficPattern("a", 300.0)], 1.0)
        both = self._trace()
        alone = _server(isolated=True).run(light_only)["a"]
        with_neighbor = _server(isolated=True).run(both)["a"]
        assert with_neighbor.p99_ms == pytest.approx(alone.p99_ms, rel=0.15)

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError):
            InferenceServer(
                [TenantConfig("a", "resnet50", 1), TenantConfig("a", "unet", 1)],
                service_times_ns={"a": 1.0},
            )

    def test_empty_tenant_list_rejected(self):
        with pytest.raises(ValueError):
            InferenceServer([])


@settings(max_examples=20, deadline=None)
@given(
    rate=st.floats(min_value=10.0, max_value=1500.0),
    seed=st.integers(0, 100),
    max_batch=st.integers(1, 8),
)
def test_property_queueing_invariants(rate, seed, max_batch):
    """No time travel: every request starts after arrival and after the
    previous service on its queue; latency >= service time."""
    server = InferenceServer(
        [TenantConfig("a", "resnet50", 1, max_batch=max_batch)],
        service_times_ns={"a": 1.0e6},
    )
    trace = generate_trace([TrafficPattern("a", rate)], duration_s=0.5, seed=seed)
    if not trace:
        return
    completed, shed = server._run_queue(trace, "a")
    assert not shed  # no admission limit configured
    assert len(completed) == len(trace)
    last_finish = 0.0
    seen_starts = []
    for record in sorted(completed, key=lambda c: (c.start_ns, c.request.request_id)):
        assert record.start_ns >= record.request.arrival_ns - 1e-9
        assert record.finish_ns > record.start_ns
        assert record.latency_ms >= 0
        seen_starts.append(record.start_ns)
    assert seen_starts == sorted(seen_starts)
