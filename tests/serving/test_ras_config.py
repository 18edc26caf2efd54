"""RasConfig field validation + the knobs it gates (backoff, deadline).

A misconfigured reliability policy must fail construction loudly with a
ReproRuntimeError naming the field — not silently serve with nonsense
retry math.
"""

import pytest

from repro.core.errors import ReproRuntimeError
from repro.serving import (
    InferenceServer,
    RasConfig,
    TenantConfig,
    TrafficPattern,
    generate_trace,
)

SERVICE = {"a": 1.0e6}


def _reports(ras):
    server = InferenceServer(
        [TenantConfig("a", "resnet50", groups=2, max_batch=1, sla_ms=None)],
        service_times_ns=dict(SERVICE),
        ras=ras,
    )
    trace = generate_trace([TrafficPattern("a", 100.0)], duration_s=0.5)
    return server.run(trace)["a"], len(trace)


class TestValidation:
    def test_defaults_are_valid(self):
        RasConfig()

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"max_retries": -1}, "max_retries"),
            ({"retry_backoff_ms": -0.1}, "retry_backoff_ms"),
            ({"backoff_factor": 0.5}, "backoff_factor"),
            ({"queue_depth_limit": 0}, "queue_depth_limit"),
            ({"breaker_threshold": 0}, "breaker_threshold"),
            ({"min_groups": 0}, "min_groups"),
            ({"transfers_per_request": 0}, "transfers_per_request"),
            ({"deadline_ms": 0.0}, "deadline_ms"),
            ({"deadline_ms": -5.0}, "deadline_ms"),
        ],
    )
    def test_bad_field_rejected_with_named_error(self, kwargs, fragment):
        with pytest.raises(ReproRuntimeError) as excinfo:
            RasConfig(**kwargs)
        message = str(excinfo.value)
        assert message.startswith("RasConfig:")
        assert fragment in message
        # the offending value is echoed back
        assert str(list(kwargs.values())[0]) in message

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backoff_factor": float("nan")},
            {"retry_backoff_ms": float("nan")},
            {"retry_backoff_ms": float("inf")},
            {"deadline_ms": float("nan")},
            {"deadline_ms": float("inf")},
        ],
    )
    def test_non_finite_field_rejected(self, kwargs):
        # NaN slips past every ordered range check; inf poisons finish times.
        with pytest.raises(ReproRuntimeError, match="must be finite") as excinfo:
            RasConfig(**kwargs)
        assert str(excinfo.value).startswith("RasConfig:")
        assert next(iter(kwargs)) in str(excinfo.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sla_ms": float("nan")},
            {"coalesce_window_ms": float("nan")},
            {"coalesce_window_ms": float("inf")},
        ],
    )
    def test_non_finite_tenant_field_rejected(self, kwargs):
        with pytest.raises(ReproRuntimeError, match=next(iter(kwargs))):
            TenantConfig("a", "resnet50", groups=1, **kwargs)

    def test_tenant_range_errors_keep_their_type(self):
        with pytest.raises(ValueError, match="coalesce_window_ms"):
            TenantConfig("a", "resnet50", groups=1, coalesce_window_ms=-1.0)
        with pytest.raises(ValueError, match="max_batch"):
            TenantConfig("a", "resnet50", groups=1, max_batch=0)

    def test_boundary_values_accepted(self):
        RasConfig(
            max_retries=0, retry_backoff_ms=0.0, backoff_factor=1.0,
            queue_depth_limit=1, breaker_threshold=1, min_groups=1,
            transfers_per_request=1, deadline_ms=0.001,
        )

    def test_none_disables_optional_limits(self):
        config = RasConfig(queue_depth_limit=None, deadline_ms=None)
        assert config.queue_depth_limit is None
        assert config.deadline_ms is None


class TestDeadline:
    def test_impossible_deadline_fails_every_request(self):
        # service time is 1 ms; a 0.5 ms deadline can never be met
        report, offered = _reports(RasConfig(deadline_ms=0.5))
        assert report.completed == 0
        assert report.failed == offered

    def test_loose_deadline_changes_nothing(self):
        tight, _ = _reports(RasConfig(deadline_ms=1000.0))
        free, _ = _reports(RasConfig(deadline_ms=None))
        assert tight.completed == free.completed
        assert tight.failed == free.failed == 0


class TestBackoffFactor:
    def test_flat_backoff_is_no_slower_than_exponential(self):
        # with faults forced via transfers_per_request the retry paths
        # exercise the factor; flat backoff (1.0) accrues less penalty
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=3, dma_corrupt_rate=0.02)
        def run(factor):
            server = InferenceServer(
                [TenantConfig("a", "resnet50", groups=2, max_batch=1,
                              sla_ms=None)],
                service_times_ns=dict(SERVICE),
                fault_plan=plan,
                ras=RasConfig(
                    max_retries=3, retry_backoff_ms=5.0,
                    backoff_factor=factor,
                ),
            )
            trace = generate_trace(
                [TrafficPattern("a", 100.0)], duration_s=1.0
            )
            return server.run(trace)["a"]

        flat = run(1.0)
        exponential = run(4.0)
        assert flat.retried == exponential.retried  # same fault draws
        assert flat.retried > 0
        assert flat.p99_ms <= exponential.p99_ms
