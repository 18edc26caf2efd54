"""Tests for the cloud-serving simulation (workload, queueing, isolation)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ReproRuntimeError
from repro.faults import FaultPlan
from repro.serving import (
    AdmissionPolicy,
    InferenceServer,
    RasConfig,
    Request,
    SloClass,
    TenantConfig,
    TrafficPattern,
    batch_service_time_ns,
    generate_trace,
)
from repro.serving.routing import Backlog
from repro.serving.server import Completions, TenantHealth, backoff_ns

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
        assert max(completed.batch_size) <= 4
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


class TestNonFiniteArrivals:
    """A NaN or infinite arrival fails typed, naming the request, before
    anything is served (``validate_trace``)."""

    @staticmethod
    def _trace(bad, at):
        trace = [Request(i, "a", i * 1e5) for i in range(6)]
        trace[at] = Request(at, "a", bad)
        return trace

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("isolated", [True, False])
    def test_rejected(self, bad, isolated):
        with pytest.raises(
            ReproRuntimeError, match=r"request 3: arrival_ns must be finite"
        ):
            _server(isolated=isolated).run(self._trace(bad, 3))


class TestRequestContract:
    """Both deployments hold a trace to ``validate_trace``, as the fleet
    does: a malformed trace raises before any request is served."""

    deployments = pytest.mark.parametrize(
        "isolated", [True, False], ids=["isolated", "shared"]
    )

    @deployments
    def test_unknown_tenant_rejected(self, isolated):
        trace = [
            Request(0, "a", 0.0), Request(1, "zz", 1e5), Request(2, "a", 2e5),
        ]
        with pytest.raises(
            ReproRuntimeError, match=r"request 1: unknown tenant 'zz'"
        ):
            _server(isolated=isolated).run(trace)

    @deployments
    @pytest.mark.parametrize(
        "arrivals", [(0.0, 2e5, 1e5), (-1e5, 0.0, 1e5)],
        ids=["out-of-order", "negative-first"],
    )
    def test_arrivals_must_be_non_decreasing(self, isolated, arrivals):
        trace = [Request(i, "a", at) for i, at in enumerate(arrivals)]
        with pytest.raises(ReproRuntimeError, match="non-decreasing"):
            _server(isolated=isolated).run(trace)


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
    seen_starts = []
    rows = sorted(
        zip(completed.start_ns, completed.finish_ns, completed.requests),
        key=lambda row: (row[0], row[2].request_id),
    )
    for start_ns, finish_ns, request in rows:
        assert start_ns >= request.arrival_ns - 1e-9
        assert finish_ns > start_ns
        assert finish_ns >= request.arrival_ns  # latency >= 0
        seen_starts.append(start_ns)
    assert seen_starts == sorted(seen_starts)


# ---------------------------------------------------------------------------
# the queue loop against its per-batch reference
# ---------------------------------------------------------------------------


class _ReferenceHealth(TenantHealth):
    """The circuit breaker scanning every streak on each clean batch."""

    def record_success(self) -> None:
        if any(self._failures):
            self._failures = [0] * len(self._failures)


class _ReferenceServer(InferenceServer):
    """The queue loop that resolves everything per batch: it collects
    every batch, looks up the service time and the fault odds, serves
    through a retry method and applies the deadline to each request."""

    def _collect_batch(self, trace, index, start, tenant, served):
        head = trace[index]
        horizon = start + tenant.coalesce_window_ms * 1e6
        batch = [head]
        probe = index + 1
        while (
            probe < len(trace)
            and len(batch) < tenant.max_batch
            and trace[probe].arrival_ns <= horizon
        ):
            candidate = trace[probe]
            if (
                not served[probe]
                and candidate.tenant == head.tenant
                and candidate.slo_class == head.slo_class
            ):
                batch.append(candidate)
                served[probe] = True
            elif self.isolated:
                break
            probe += 1
        return batch

    def _serve_batch(self, batch_size, start_ns, base_ns, health, rng):
        p_fatal, p_transient, _ = self.fault_plan.odds(batch_size)
        service = batch_service_time_ns(base_ns, batch_size)
        now = start_ns
        retries = 0
        while True:
            now += service
            if p_fatal > 0.0 and rng.random() < p_fatal:
                health.record_failure(rng.randrange(health.available))
                return now, "failed", retries
            if not (p_transient > 0.0 and rng.random() < p_transient):
                health.record_success()
                return now, "ok", retries
            retries += 1
            if retries > self.ras.max_retries:
                return now, "failed", retries
            now += backoff_ns(retries)

    def _run_queue(self, trace, rng_label):
        ctl = self._admission_ctl
        if ctl is not None:
            ctl.reset()
        rng = self._rng(rng_label)
        healths = {
            name: _ReferenceHealth(
                tenant.groups, self.ras.breaker_threshold, self.ras.min_groups
            )
            for name, tenant in self.tenants.items()
        }
        backlog = Backlog(self.tenants, self.ras, ctl)
        completed = Completions()
        shed = []
        served = [False] * len(trace)
        free_at = 0.0
        for index, head in enumerate(trace):
            if served[index]:
                continue
            served[index] = True
            tenant = self.tenants[head.tenant]
            health = healths[head.tenant]
            now = head.arrival_ns
            if ctl is not None:
                base = self._service_time(head.tenant, health.available)
                decision = ctl.admit(
                    head.slo_class, backlog, now,
                    max(0.0, free_at - now), batch_service_time_ns(base, 1),
                )
                if not decision.admitted:
                    shed.append((head, decision.reason))
                    continue
            elif backlog.full(head.tenant, now):
                shed.append((head, "queue-full"))
                continue
            start = max(now, free_at)
            batch = self._collect_batch(trace, index, start, tenant, served)
            start = max(start, batch[-1].arrival_ns)
            base = self._service_time(head.tenant, health.available)
            degraded = health.degraded
            finish, status, retries = self._serve_batch(
                len(batch), start, base, health, rng
            )
            completed.add(
                batch, start, finish,
                [
                    self.ras.deadline_status(status, request, finish)
                    for request in batch
                ],
                retries, degraded,
            )
            backlog.push(batch, finish)
            free_at = finish
        return completed, shed


_EQUIVALENCE_POLICY = AdmissionPolicy(
    classes=(
        SloClass("interactive", deadline_ms=5.0, queue_limit=12,
                 shed_priority=0),
        SloClass("standard", deadline_ms=20.0, queue_limit=6,
                 shed_priority=1),
        SloClass("batch", deadline_ms=None, queue_limit=6, shed_priority=2),
    ),
)


def _equivalence_trace(seed):
    """Two tenants, three SLO classes, arrivals on a 0.1 ms grid so that
    ties and arrivals exactly at a batching horizon occur."""
    trace = generate_trace(
        [
            TrafficPattern("a", 900.0, slo_class="interactive"),
            TrafficPattern("a", 500.0, burstiness=3.0, slo_class="batch"),
            TrafficPattern("b", 150.0, burstiness=2.0),
        ],
        duration_s=0.15, seed=seed,
    )
    return [
        Request(r.request_id, r.tenant, round(r.arrival_ns / 1e5) * 1e5,
                r.slo_class)
        for r in trace
    ]


def _replay(server, trace):
    """Every queue of ``server.run`` through ``_run_queue``, as columns."""
    if server.isolated:
        queues = [
            ([r for r in trace if r.tenant == name], name)
            for name in server.tenants
        ]
    else:
        queues = [(trace, "shared")]
    replayed = []
    for queue, label in queues:
        completed, shed = server._run_queue(queue, label)
        columns = {name: getattr(completed, name) for name in Completions.__slots__}
        replayed.append((columns, shed))
    return replayed


def _assert_loop_matches_reference(trace, tenants, service_times_ns, **kwargs):
    """Both loops over the same deployment; ``service_times_ns`` None
    measures every time on the simulator. Returns the loop's replay."""
    def build(cls):
        times = None if service_times_ns is None else dict(service_times_ns)
        return cls(tenants, service_times_ns=times, **kwargs)

    replayed = _replay(build(InferenceServer), trace)
    assert replayed == _replay(build(_ReferenceServer), trace)
    return replayed


@settings(max_examples=60, deadline=None)
@given(
    isolated=st.booleans(),
    max_batch=st.integers(1, 8),
    window_ms=st.sampled_from([0.0, 0.5]),
    door=st.sampled_from(["none", "flat", "classes"]),
    faults=st.sampled_from(["none", "transient", "fatal", "both"]),
    deadline_ms=st.sampled_from([None, 3.0]),
    seed=st.integers(0, 1000),
)
def test_queue_loop_matches_per_batch_reference(
    isolated, max_batch, window_ms, door, faults, deadline_ms, seed
):
    """The queue loop that resolves each batch's cost once and collects
    only when a request can join serves every request at the same start,
    finish, batch, status, retries and degradation as the loop that
    resolves everything per batch, and sheds the same requests."""
    tenants = [
        TenantConfig("a", "resnet50", groups=2, max_batch=max_batch,
                     coalesce_window_ms=window_ms),
        TenantConfig("b", "unet", groups=3, max_batch=max(1, max_batch // 2)),
    ]
    rates = {
        "none": {},
        "transient": {"dma_corrupt_rate": 0.01},
        "fatal": {"dma_abort_rate": 0.004},
        "both": {"dma_corrupt_rate": 0.01, "dma_abort_rate": 0.004},
    }[faults]
    _assert_loop_matches_reference(
        _equivalence_trace(seed), tenants, {"a": 1.0e6, "b": 4.0e6},
        isolated=isolated,
        fault_plan=FaultPlan(seed=seed, **rates),
        ras=RasConfig(
            max_retries=1, breaker_threshold=2,
            queue_depth_limit=6 if door == "flat" else None,
            deadline_ms=deadline_ms,
        ),
        admission=_EQUIVALENCE_POLICY if door == "classes" else None,
    )


@pytest.mark.parametrize("isolated", [True, False], ids=["isolated", "shared"])
def test_queue_loop_matches_reference_on_measured_degraded_times(isolated):
    """Measured service times whose breakers trip: the degraded slices
    are served at their simulator-measured times, keyed by the groups
    still available."""
    tenants = [
        TenantConfig("a", "resnet50", groups=2, max_batch=4,
                     coalesce_window_ms=0.5),
        TenantConfig("b", "vgg16", groups=3, max_batch=2),
    ]
    trace = generate_trace(
        [TrafficPattern("a", 1500.0), TrafficPattern("b", 300.0)],
        duration_s=0.2, seed=4,
    )
    replayed = _assert_loop_matches_reference(
        trace, tenants, None, isolated=isolated,
        fault_plan=FaultPlan(seed=5, dma_corrupt_rate=0.005,
                             dma_abort_rate=0.004),
        ras=RasConfig(max_retries=1, breaker_threshold=2, deadline_ms=4.0),
    )
    degraded = [flag for columns, _ in replayed for flag in columns["degraded"]]
    statuses = [s for columns, _ in replayed for s in columns["status"]]
    assert any(degraded) and not all(degraded)
    assert "failed" in statuses and "ok" in statuses
