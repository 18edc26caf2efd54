"""RasConfig field validation + what it gates (backoff, deadline).

A misconfigured reliability policy must fail construction loudly with a
ReproRuntimeError naming the field — not silently serve with nonsense
retry math.
"""

from dataclasses import fields

import pytest

from repro.core.errors import ReproRuntimeError
from repro.serving import (
    InferenceServer,
    RasConfig,
    TenantConfig,
    TrafficPattern,
    generate_trace,
)
from repro.serving.server import BACKOFF_FACTOR, RETRY_BACKOFF_MS, backoff_ns

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

    def test_holds_only_the_knobs_a_caller_sets(self):
        # Backoff shape and per-request event exposure are module
        # constants of repro.serving.server.
        assert [f.name for f in fields(RasConfig)] == [
            "max_retries", "queue_depth_limit", "breaker_threshold",
            "min_groups", "deadline_ms",
        ]

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"max_retries": -1}, "max_retries"),
            ({"queue_depth_limit": 0}, "queue_depth_limit"),
            ({"breaker_threshold": 0}, "breaker_threshold"),
            ({"min_groups": 0}, "min_groups"),
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
            max_retries=0, queue_depth_limit=1, breaker_threshold=1,
            min_groups=1, deadline_ms=0.001,
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


class TestBackoff:
    def test_backoff_grows_by_the_factor_per_retry(self):
        assert [backoff_ns(retries) for retries in (1, 2, 3)] == [
            RETRY_BACKOFF_MS * 1e6,
            RETRY_BACKOFF_MS * 1e6 * BACKOFF_FACTOR,
            RETRY_BACKOFF_MS * 1e6 * BACKOFF_FACTOR ** 2,
        ]
        assert BACKOFF_FACTOR >= 1.0  # backoff never shrinks
