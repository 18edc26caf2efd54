"""Inference-server simulation: queueing + batching over processing groups.

Implements the paper's §IV-E serving story quantitatively:

- each tenant owns an **isolated slice** of processing groups (Fig. 7);
  its requests queue only behind its own traffic;
- alternatively, a **shared** deployment funnels every tenant through one
  queue over the whole chip — the interference case isolation prevents
  ("isolated hardware resources prevent interference among each other,
  system throughput is increased without compromising inference latency");
- dynamic batching: requests waiting in a queue coalesce up to
  ``max_batch``, with sub-linear batch service times taken from the i20's
  calibrated utilization-vs-batch curve — in shared mode, same-tenant
  waiting requests coalesce the same way, so the isolated-vs-shared
  comparison isolates the queueing policy rather than loss of batching.

Service times come from one measured executor run per (model, groups)
configuration, so the queueing layer stays fast while staying anchored to
the detailed simulator.

RAS layer (reliability/availability/serviceability)
---------------------------------------------------

A server built with a :class:`~repro.faults.FaultPlan` replays the fault
campaign at request granularity: each service attempt draws transient
(DMA corruption, correctable ECC) and fatal (DMA abort, uncorrectable
ECC, core hang) faults from a deterministic per-run RNG, at the
per-attempt odds :meth:`~repro.faults.plan.FaultPlan.odds` compounds
from the plan's per-event rates. The server *survives* them:

- **retry with backoff** — a transiently-faulted batch replays up to
  ``max_retries`` times, each attempt paying the full service time plus
  exponential backoff (``RETRY_BACKOFF_MS``, times ``BACKOFF_FACTOR`` per
  attempt);
- **admission control** — a request arriving to a tenant queue deeper
  than ``queue_depth_limit`` is shed immediately instead of waiting;
- **circuit breaker** — fatal faults are attributed to a processing
  group of the tenant's slice; ``breaker_threshold`` consecutive
  failures trip the breaker and the slice degrades to fewer groups with
  the correspondingly longer calibrated service time;
- **observability** — :class:`TenantReport` accounts every ``failed``,
  ``retried``, ``shed`` and ``degraded`` request next to the latency
  percentiles.

With no fault plan, every number is bit-identical to the fault-free
server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.caching import MEASUREMENT_CACHE, MeasurementCache
from repro.core.accelerator import Accelerator
from repro.core.errors import ReproRuntimeError, reject_non_finite
from repro.faults.plan import FaultPlan
from repro.models.zoo import build
from repro.perfmodel.calibration import calibration
from repro.runtime.runtime import Device
from repro.seeding import derive_rng
from repro.serving.routing import Backlog
from repro.serving.workload import Request, validate_trace


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's deployment: model + slice size + SLA + batching."""

    name: str
    model: str
    groups: int
    max_batch: int = 1
    sla_ms: float | None = None
    coalesce_window_ms: float = 0.0
    """Continuous batching: a dispatching batch keeps admitting requests
    arriving up to this long after its nominal start (until ``max_batch``)
    instead of closing at a fixed boundary. 0 keeps the legacy
    waiting-requests-only batching bit-identically."""

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.coalesce_window_ms < 0:
            raise ValueError(
                f"coalesce_window_ms must be >= 0, "
                f"got {self.coalesce_window_ms}"
            )


#: First retry backoff; grows by ``BACKOFF_FACTOR`` per attempt.
RETRY_BACKOFF_MS = 0.1
#: Multiplier applied to the backoff after each retry (>= 1: backoff
#: never shrinks).
BACKOFF_FACTOR = 2.0


def backoff_ns(retries: int) -> float:
    """Backoff before replay number ``retries`` (1-based)."""
    return RETRY_BACKOFF_MS * 1e6 * (BACKOFF_FACTOR ** (retries - 1))


@dataclass(frozen=True)
class RasConfig:
    """Reliability policy knobs for one :class:`InferenceServer`.

    Every field is validated at construction; a bad knob raises
    :class:`~repro.core.errors.ReproRuntimeError` naming the field and the
    offending value — a misconfigured reliability policy should fail the
    deployment loudly, not silently serve with nonsense retry math.
    """

    max_retries: int = 2
    """Service replays of a transiently-faulted batch before giving up."""
    queue_depth_limit: int | None = None
    """Admission control: shed arrivals beyond this per-tenant depth."""
    breaker_threshold: int = 3
    """Consecutive fatal faults on one group that trip its breaker."""
    min_groups: int = 1
    """Degradation floor: a tenant never drops below this many groups."""
    deadline_ms: float | None = None
    """Per-request completion deadline: a request finishing (queue +
    service + retries) past this counts as ``failed``, mirroring a
    client-side timeout. ``None`` disables the check."""

    def __post_init__(self) -> None:
        def reject(message: str) -> None:
            raise ReproRuntimeError(f"RasConfig: {message}")

        reject_non_finite(self)
        if self.max_retries < 0:
            reject(
                f"max_retries must be >= 0 (0 disables retries), "
                f"got {self.max_retries}"
            )
        if self.queue_depth_limit is not None and self.queue_depth_limit < 1:
            reject(
                f"queue_depth_limit must be >= 1 or None, "
                f"got {self.queue_depth_limit}"
            )
        if self.breaker_threshold < 1:
            reject(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.min_groups < 1:
            reject(f"min_groups must be >= 1, got {self.min_groups}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            reject(
                f"deadline_ms must be > 0 or None, got {self.deadline_ms}"
            )

    def deadline_status(self, status: str, request: Request, finish: float) -> str:
        """Apply the per-request deadline: late completions count failed."""
        if (
            status == "ok"
            and self.deadline_ms is not None
            and (finish - request.arrival_ns) > self.deadline_ms * 1e6
        ):
            return "failed"
        return status


class TenantHealth:
    """Per-group failure tracking + circuit breaker for one tenant slice."""

    def __init__(self, groups: int, threshold: int, min_groups: int) -> None:
        self.configured = groups
        self.available = groups
        self.threshold = threshold
        self.min_groups = min(min_groups, groups)
        self._failures = [0] * groups  # consecutive faults per live group
        # False while every streak is 0, so a clean batch clears in O(1).
        self._streaking = False

    @property
    def degraded(self) -> bool:
        return self.available < self.configured

    def record_success(self) -> None:
        """A clean service clears every live group's failure streak."""
        if self._streaking:
            self._failures = [0] * len(self._failures)
            self._streaking = False

    def record_failure(self, slot: int) -> bool:
        """Attribute one fatal fault; returns True when the breaker trips
        and the slice degrades (the failed group is routed around)."""
        self._streaking = True
        self._failures[slot] += 1
        if self._failures[slot] >= self.threshold and self.available > self.min_groups:
            self.available -= 1
            del self._failures[slot]
            return True
        return False


class Completions:
    """Completed requests as parallel columns, in completion order.

    A served batch appends each column once, so replaying a trace builds
    no object per request and leaves the cyclic garbage collector nothing
    new to track. ``status`` is ``"ok"`` or ``"failed"`` (fatal fault,
    retries exhausted or deadline missed); ``retries`` counts the batch's
    service replays; ``degraded`` marks a batch served on a
    circuit-breaker-degraded slice.
    """

    __slots__ = (
        "requests", "start_ns", "finish_ns", "batch_size", "status",
        "retries", "degraded",
    )

    def __init__(self) -> None:
        self.requests: list[Request] = []
        self.start_ns: list[float] = []
        self.finish_ns: list[float] = []
        self.batch_size: list[int] = []
        self.status: list[str] = []
        self.retries: list[int] = []
        self.degraded: list[bool] = []

    def add_one(
        self,
        request: Request,
        start_ns: float,
        finish_ns: float,
        status: str,
        retries: int,
        degraded: bool,
    ) -> None:
        """One served batch of one request: :meth:`add` without the lists."""
        self.requests.append(request)
        self.status.append(status)
        self.start_ns.append(start_ns)
        self.finish_ns.append(finish_ns)
        self.batch_size.append(1)
        self.retries.append(retries)
        self.degraded.append(degraded)

    def add(
        self,
        batch: list[Request],
        start_ns: float,
        finish_ns: float,
        statuses: list[str],
        retries: int,
        degraded: bool,
    ) -> None:
        """One served batch; ``statuses`` holds each member's final status."""
        size = len(batch)
        self.requests += batch
        self.status += statuses
        self.start_ns += [start_ns] * size
        self.finish_ns += [finish_ns] * size
        self.batch_size += [size] * size
        self.retries += [retries] * size
        self.degraded += [degraded] * size

    def extend(self, other: "Completions") -> None:
        for name in self.__slots__:
            getattr(self, name).extend(getattr(other, name))

    def __len__(self) -> int:
        return len(self.requests)


class RequestLedger:
    """The availability formulas of a request ledger that books
    ``offered``, ``served`` and ``shed_reasons``: one definition for
    :class:`SloClassStats` and the fleet's per-tenant stats. A
    ``no-capacity`` shed is an arrival that found no replica active."""

    __slots__ = ()

    def shed_for(self, reason: str) -> int:
        return self.shed_reasons.get(reason, 0)

    @property
    def availability(self) -> float:
        """Served fraction of offered requests (1.0 on zero offered)."""
        if self.offered == 0:
            return 1.0
        return self.served / self.offered

    @property
    def availability_while_healthy(self) -> float:
        """Availability among arrivals that found >= 1 replica active."""
        eligible = self.offered - self.shed_for("no-capacity")
        if eligible == 0:
            return 1.0
        return self.served / eligible


@dataclass
class SloClassStats(RequestLedger):
    """Per-SLO-class request accounting (shared by server and fleet).

    ``p99_ms`` is interpolated from histogram buckets via
    :meth:`~repro.obs.metrics.HistogramSeries.quantile` — the same
    estimator the autoscaler uses — so reports and control decisions
    read one number.
    """

    slo_class: str
    offered: int = 0
    served: int = 0
    failed: int = 0
    shed: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    """Shed counts by reason: ``queue-full`` / ``deadline`` / ``brownout``
    / ``no-capacity``."""
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0

    def record_shed(self, reason: str) -> None:
        self.shed += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def set_percentiles(self, latencies_ms: list[float], buckets) -> None:
        """Fill p50/p95/p99 from bucket interpolation (0s when empty).

        The latencies are binned in one pass (:func:`bucket_counts`).
        """
        from repro.obs.metrics import HistogramSeries

        if not latencies_ms:
            return
        buckets = tuple(buckets)
        series = HistogramSeries(
            buckets,
            counts=bucket_counts(latencies_ms, buckets),
            count=len(latencies_ms),
        )
        self.p50_ms = series.quantile(0.50)
        self.p95_ms = series.quantile(0.95)
        self.p99_ms = series.quantile(0.99)

    def to_dict(self) -> dict:
        return {
            "slo_class": self.slo_class, "offered": self.offered,
            "served": self.served, "failed": self.failed, "shed": self.shed,
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "p50_ms": self.p50_ms, "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "availability": self.availability,
        }


class ClassBook:
    """Per-SLO-class :class:`SloClassStats` for one tenant.

    Requests are booked as they settle: served (their latency appended
    to :meth:`served`'s list), failed, or shed with a reason.
    :meth:`finish` fills the served and offered counts and the
    bucket-interpolated percentiles, and returns the classes in name
    order.
    """

    def __init__(self) -> None:
        self._stats: dict[str, SloClassStats] = {}
        self._latencies: dict[str, list[float]] = {}

    def _entry(self, slo_class: str) -> SloClassStats:
        entry = self._stats.get(slo_class)
        if entry is None:
            entry = self._stats[slo_class] = SloClassStats(slo_class=slo_class)
        return entry

    def served(self, slo_class: str) -> list[float]:
        """The latencies of ``slo_class``'s served requests, to append to."""
        values = self._latencies.get(slo_class)
        if values is None:
            self._entry(slo_class)
            values = self._latencies[slo_class] = []
        return values

    def fail(self, slo_class: str, count: int = 1) -> None:
        """``count`` completed requests of ``slo_class`` that failed."""
        self._entry(slo_class).failed += count

    def shed(self, slo_class: str, reason: str) -> None:
        self._entry(slo_class).record_shed(reason)

    def finish(self) -> dict[str, SloClassStats]:
        from repro.obs.metrics import DEFAULT_BUCKETS_MS

        for slo_class, values in self._latencies.items():
            entry = self._stats[slo_class]
            entry.served = len(values)
            entry.set_percentiles(values, DEFAULT_BUCKETS_MS)
        for entry in self._stats.values():
            entry.offered = entry.served + entry.failed + entry.shed
        return dict(sorted(self._stats.items()))


def bucket_counts(values, buckets) -> list[int]:
    """Histogram counts of ``values`` over ascending ``buckets``, the
    +Inf bucket last, in one pass.

    ``searchsorted(side="left")`` puts each value in the first bucket with
    ``value <= upper`` (past the last edge, NaN included, the +Inf
    bucket): the rule :meth:`~repro.obs.metrics.HistogramSeries.observe`
    applies one value at a time.
    """
    slots = np.searchsorted(buckets, values, side="left")
    return np.bincount(slots, minlength=len(buckets) + 1).tolist()


def tail_percentiles(latencies_ms) -> tuple[float, float, float]:
    """Exact p50/p95/p99 of a tenant's served latencies (0s when empty)."""
    if len(latencies_ms) == 0:
        return 0.0, 0.0, 0.0
    array = np.asarray(latencies_ms)
    return (
        float(np.percentile(array, 50)),
        float(np.percentile(array, 95)),
        float(np.percentile(array, 99)),
    )


@dataclass
class TenantReport:
    """Serving statistics for one tenant over a run."""

    tenant: str
    completed: int
    throughput_per_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_batch: float
    sla_ms: float | None
    sla_violations: int
    failed: int = 0
    """Requests lost to fatal faults or exhausted retries."""
    retried: int = 0
    """Served requests whose batch needed >= 1 service replay."""
    shed: int = 0
    """Requests dropped by admission control before service."""
    degraded: int = 0
    """Requests served while the tenant's slice was degraded."""
    shed_reasons: dict[str, int] = field(default_factory=dict)
    """Shed counts by reason (``queue-full``/``deadline``/``brownout``)."""
    by_class: dict[str, SloClassStats] = field(default_factory=dict)
    """Per-SLO-class breakdown (populated when classes are in play)."""

    @property
    def offered(self) -> int:
        """Every request the trace offered to this tenant."""
        return self.completed + self.failed + self.shed

    @property
    def sla_violation_rate(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.sla_violations / self.completed

    @property
    def availability(self) -> float:
        """Fraction of offered requests that completed successfully."""
        if self.offered == 0:
            return 1.0
        return self.completed / self.offered


class NoHealthyGroupsError(ReproRuntimeError):
    """A service time was requested for a slice with no live groups."""


def measure_service_time_ns(
    model: str,
    groups: int,
    obs=None,
    fault_plan: FaultPlan | None = None,
    device: str = "i20",
) -> float:
    """One detailed-simulator run: the per-inference service time.

    ``device`` is the product name of the card measured on (as
    ``Device.open`` takes it), so an i10 fleet serves at i10 speed.

    With an :class:`~repro.obs.Observability` hub the measurement opens a
    serving-layer ``measure:<model>x<groups>`` span whose TraceContext the
    launch (and through it the executor, simulator and fault injector)
    parents on — the full cross-layer thread of one inference. An optional
    ``fault_plan`` attaches a hardware-level injector to the measurement
    accelerator so fault events appear on the same timeline; keep its
    fatal rates at zero or the measurement launch itself may fail.

    Plain measurements (no hub, no fault plan) are memoized process-wide
    in :data:`repro.caching.MEASUREMENT_CACHE` — the simulator is
    deterministic, so re-measuring (model, groups, device) always
    reproduces the cached latency. Measurements with a hub or fault plan
    attached bypass the memo: their spans and fault timelines are the
    point of running them.
    """
    memoizable = obs is None and fault_plan is None
    if memoizable:
        key = MeasurementCache.key_for(model, groups, device)
        cached = MEASUREMENT_CACHE.get(key)
        if cached is not None:
            return cached
    accelerator = Accelerator.by_name(device)
    if obs is not None:
        accelerator.attach_observability(obs)
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        accelerator.attach_faults(FaultInjector(fault_plan))
    card = Device(accelerator)
    compiled = card.compile(build(model), batch=1)
    measure_handle = None
    if obs is not None:
        measure_handle = obs.tracer.begin(
            f"measure:{model}x{groups}", layer="serving",
            start_ns=accelerator.sim.now, track="measurement",
            model=model, groups=groups,
        )
    result = card.launch(
        compiled,
        num_groups=groups,
        trace_ctx=measure_handle.context if measure_handle else None,
    )
    if measure_handle is not None:
        measure_handle.end(accelerator.sim.now, latency_ms=result.latency_ms)
    if memoizable:
        MEASUREMENT_CACHE.put(key, result.latency_ns)
    return result.latency_ns


_BATCH_SCALE_CACHE: dict[int, float] = {}


def batch_service_time_ns(base_ns: float, batch: int) -> float:
    """Sub-linear batch scaling from the i20 calibration curve.

    The curve value is memoized per batch size (it is a pure function of
    the calibration constants); the arithmetic against ``base_ns`` is
    unchanged, so results stay bit-identical.
    """
    if batch < 1:
        raise ValueError(f"batch {batch} < 1")
    scale = _BATCH_SCALE_CACHE.get(batch)
    if scale is None:
        scale = calibration("i20").batch_scale(batch)
        _BATCH_SCALE_CACHE[batch] = scale
    return base_ns * batch / scale


class InferenceServer:
    """Event-driven queueing simulation over tenant slices."""

    def __init__(
        self,
        tenants: list[TenantConfig],
        isolated: bool = True,
        service_times_ns: dict[str, float] | None = None,
        fault_plan: FaultPlan | None = None,
        ras: RasConfig | None = None,
        obs=None,
        measurement_fault_plan: FaultPlan | None = None,
        admission=None,
    ) -> None:
        if not tenants:
            raise ValueError("server needs at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.tenants = {tenant.name: tenant for tenant in tenants}
        self.isolated = isolated
        # No plan is the fault-free plan: zero odds, draw streams off seed 0.
        self.fault_plan = fault_plan or FaultPlan()
        self.obs = obs
        self.measurement_fault_plan = measurement_fault_plan
        self.ras = ras or RasConfig()
        # SLO-class admission (repro.serving.admission): when a policy is
        # attached, per-class bounded queues + deadline-aware early
        # shedding + brownout supersede the flat ras.queue_depth_limit.
        self.admission = admission
        self._admission_ctl = None
        if admission is not None:
            from repro.serving.admission import AdmissionController

            self._admission_ctl = AdmissionController(admission)
        self.service_times_ns = service_times_ns or {}
        # Tenants whose base time we measured on the detailed simulator get
        # degraded-slice times measured (calibrated) too; user-provided
        # times fall back to linear scaling.
        self._measured = {
            tenant.name
            for tenant in tenants
            if tenant.name not in self.service_times_ns
        }
        for tenant in tenants:
            if tenant.name not in self.service_times_ns:
                self.service_times_ns[tenant.name] = measure_service_time_ns(
                    tenant.model, tenant.groups,
                    obs=obs, fault_plan=measurement_fault_plan,
                )
        self._degraded_times: dict[tuple[str, int], float] = {}

    # -- service-time resolution ---------------------------------------------

    def _service_time(self, tenant_name: str, groups: int) -> float:
        """Per-inference service time of ``tenant_name`` on ``groups`` groups.

        Raises :class:`NoHealthyGroupsError` for ``groups < 1`` rather than
        dividing by zero in the linear fallback (or asking the simulator
        for a zero-group launch): RAS degradation floors at ``min_groups
        >= 1``, so a zero here means the caller's slice accounting broke.
        """
        tenant = self.tenants[tenant_name]
        if groups < 1:
            raise NoHealthyGroupsError(
                f"tenant {tenant_name!r}: service time requested for "
                f"{groups} groups; a slice always keeps >= 1 healthy group"
            )
        if groups == tenant.groups:
            return self.service_times_ns[tenant_name]
        key = (tenant_name, groups)
        if key not in self._degraded_times:
            base = self.service_times_ns[tenant_name]
            if tenant_name in self._measured:
                self._degraded_times[key] = measure_service_time_ns(
                    tenant.model, groups,
                    obs=self.obs, fault_plan=self.measurement_fault_plan,
                )
            else:
                # Linear-in-groups approximation for user-supplied times.
                self._degraded_times[key] = base * tenant.groups / groups
        return self._degraded_times[key]

    def _batch_cost(
        self, tenant_name: str, groups: int, size: int
    ) -> tuple[float, float, float]:
        """``(service_ns, p_fatal, p_transient)`` of one attempt at a batch
        of ``size`` on ``groups`` of ``tenant_name``'s groups.

        Every input is a pure or memoised function of the arguments, so a
        queue resolves each triple once and reuses it.
        """
        base = self._service_time(tenant_name, groups)
        p_fatal, p_transient, _ = self.fault_plan.odds(size)
        return batch_service_time_ns(base, size), p_fatal, p_transient

    # -- simulation ----------------------------------------------------------

    def run(self, trace: list[Request]) -> dict[str, TenantReport]:
        """Replay the trace; returns per-tenant serving statistics.

        Isolated mode: one server (the tenant's group slice) per tenant.
        Shared mode: a single FIFO server processes everything in arrival
        order — head-of-line blocking included, though same-tenant waiting
        requests still coalesce into batches.

        Deterministic: the same trace, fault plan and RAS config always
        produce identical reports (per-run RNGs are re-seeded from the
        plan seed on every call). A trace that breaks the request contract
        (:func:`~repro.serving.workload.validate_trace`) raises before
        anything is served.
        """
        validate_trace(trace, self.tenants)
        ctl = self._admission_ctl
        if self.isolated:
            by_tenant = _by_tenant(trace, self.tenants, attrgetter("tenant"))
            queues = [(mine, name) for name, mine in by_tenant.items()]
        else:
            queues = [(trace, "shared")]
        completed = Completions()
        shed: list[tuple[Request, str]] = []
        brownout_level, peak_backpressure = 0, 0.0
        for queue_trace, rng_label in queues:
            done, dropped = self._run_queue(queue_trace, rng_label)
            completed.extend(done)
            shed.extend(dropped)
            if ctl is not None:
                # Each queue runs its own brownout; report the worst one.
                brownout_level = max(brownout_level, ctl.brownout_level)
                peak_backpressure = max(peak_backpressure, ctl.peak_backpressure)
        reports = self._report(completed, trace, shed)
        if self.obs is not None:
            self._emit_observability(
                completed, shed, reports, brownout_level, peak_backpressure
            )
        return reports

    # -- observability bridge -------------------------------------------------

    def _emit_observability(
        self,
        completed: Completions,
        shed: list[tuple[Request, str]],
        reports: dict[str, TenantReport],
        brownout_level: int,
        peak_backpressure: float,
    ) -> None:
        """Report the run into the attached Observability hub.

        One serving-layer span per request (children: ``queue`` + ``service``),
        one instant event per shed arrival, and the QoS accounting mirrored
        into the registry. Runs once after the queueing simulation — the
        serving numbers are bit-identical with or without a hub.
        """
        from repro.obs.metrics import DEFAULT_BUCKETS_MS

        tracer = self.obs.tracer
        metrics = self.obs.metrics
        requests_total = metrics.counter(
            "serving_requests_total", "requests by final status"
        )
        latency_hist = metrics.histogram(
            "serving_request_latency_ms", "arrival-to-finish latency",
            unit="ms", buckets=DEFAULT_BUCKETS_MS,
        )
        queue_hist = metrics.histogram(
            "serving_queue_wait_ms", "arrival-to-service wait",
            unit="ms", buckets=DEFAULT_BUCKETS_MS,
        )
        batch_hist = metrics.histogram(
            "serving_batch_size", "dynamic-batch sizes served",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        retries_total = metrics.counter(
            "serving_retries_total", "request-level RAS service replays"
        )
        degraded_total = metrics.counter(
            "serving_degraded_requests_total",
            "requests served on a degraded slice",
        )
        shed_total = metrics.counter(
            "serving_shed_total", "requests shed by admission, by reason"
        )
        class_latency = metrics.histogram(
            "serving_class_latency_ms", "per-SLO-class request latency",
            unit="ms", buckets=DEFAULT_BUCKETS_MS,
        )
        classes_in_play = self._admission_ctl is not None
        rows = sorted(
            zip(
                completed.requests, completed.start_ns, completed.finish_ns,
                completed.batch_size, completed.status, completed.retries,
                completed.degraded,
            ),
            key=lambda row: row[0].request_id,
        )
        for request, start_ns, finish_ns, batch, status, retries, degraded in rows:
            tenant = request.tenant
            arrival_ns = request.arrival_ns
            root = tracer.begin(
                f"request:{request.request_id}", layer="serving",
                start_ns=arrival_ns, track=f"tenant.{tenant}", tenant=tenant,
            )
            if start_ns > arrival_ns:
                tracer.add_span(
                    "queue", layer="serving",
                    start_ns=arrival_ns, end_ns=start_ns,
                    parent=root.context, track=f"tenant.{tenant}",
                )
            tracer.add_span(
                "service", layer="serving",
                start_ns=start_ns, end_ns=finish_ns,
                parent=root.context, track=f"tenant.{tenant}",
                batch=batch, retries=retries,
                status=status, degraded=degraded,
            )
            root.end(finish_ns, status=status, batch=batch)
            requests_total.inc(tenant=tenant, status=status)
            if status == "ok":
                latency_ms = (finish_ns - arrival_ns) / 1e6
                latency_hist.observe(latency_ms, tenant=tenant)
                queue_hist.observe((start_ns - arrival_ns) / 1e6, tenant=tenant)
                batch_hist.observe(batch, tenant=tenant)
                if classes_in_play:
                    class_latency.observe(
                        latency_ms, tenant=tenant,
                        slo_class=request.slo_class,
                    )
            if retries:
                retries_total.inc(retries, tenant=tenant)
            if degraded:
                degraded_total.inc(tenant=tenant)
        for request, reason in shed:
            tracer.add_event(
                "shed", layer="serving", time_ns=request.arrival_ns,
                track=f"tenant.{request.tenant}", tenant=request.tenant,
                reason=reason,
            )
            requests_total.inc(tenant=request.tenant, status="shed")
            shed_total.inc(
                tenant=request.tenant, slo_class=request.slo_class,
                reason=reason,
            )
        for name, report in reports.items():
            metrics.gauge(
                "serving_throughput_rps", "completed requests per second",
            ).set(report.throughput_per_s, tenant=name)
            metrics.gauge(
                "serving_p99_ms", "p99 request latency", unit="ms"
            ).set(report.p99_ms, tenant=name)
            metrics.gauge(
                "serving_availability", "completed / offered requests"
            ).set(report.availability, tenant=name)
            if report.sla_violations:
                metrics.counter(
                    "serving_sla_violations_total", "requests over SLA"
                ).inc(report.sla_violations, tenant=name)
        if self._admission_ctl is not None:
            metrics.gauge(
                "serving_brownout_level", "degradation level at run end"
            ).set(brownout_level)
            metrics.gauge(
                "serving_backpressure_peak", "worst queue fullness seen"
            ).set(peak_backpressure)

    def _rng(self, label: str) -> random.Random:
        """Per-tenant (or ``"shared"``) draw stream off the plan seed.

        Derived through :func:`repro.seeding.derive_rng`, whose single-label
        stream name is exactly the historical ``f"{seed}:{label}"`` key —
        existing campaigns reproduce bit-identically.
        """
        return derive_rng(self.fault_plan.seed, label)

    def _collect_batch(
        self,
        trace: list[Request],
        index: int,
        start: float,
        tenant: TenantConfig,
        served: list[bool],
    ) -> list[Request]:
        """Dynamic + continuous batching from ``trace[index]`` onward.

        Requests already waiting at ``start`` join as before; with a
        ``coalesce_window_ms`` the batch stays open for late arrivals up
        to ``start + window`` (continuous batching) — still capped at
        ``max_batch`` and, when SLO classes are in play, restricted to
        the head's class so one slow batch-class batch never captures an
        interactive request. Joiners are marked in ``served``.

        The one isolated-vs-shared rule: an isolated slice is FIFO, so a
        request that does not match the head closes the batch (it must be
        served next); the shared queue skips it, and it keeps its place.
        """
        head = trace[index]
        window_ns = tenant.coalesce_window_ms * 1e6
        horizon = start + window_ns
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

    def _run_queue(
        self, trace: list[Request], rng_label: str
    ) -> tuple[Completions, list[tuple[Request, str]]]:
        """Serve one FIFO queue in arrival order.

        Isolated mode runs one queue per tenant slice (``trace`` is that
        tenant's requests, ``rng_label`` its name); shared mode runs one
        queue over the whole chip (``"shared"``), head-of-line blocking
        included. Class depths for admission are scoped to the queue.

        Each batch is served with RAS retries: every attempt pays the full
        batch service time; a transient fault adds exponential backoff and
        replays (up to ``ras.max_retries`` times), a fatal fault fails the
        batch and feeds the circuit breaker. A batch's cost is resolved
        once per (tenant, available groups, size) and reused.
        """
        ctl = self._admission_ctl
        if ctl is not None:
            ctl.reset()  # a queue never inherits another queue's brownout
        rng = self._rng(rng_label)
        draw, randrange = rng.random, rng.randrange
        tenants = self.tenants
        healths = {
            name: TenantHealth(
                tenant.groups, self.ras.breaker_threshold, self.ras.min_groups
            )
            for name, tenant in tenants.items()
        }
        windows_ns = {
            name: tenant.coalesce_window_ms * 1e6
            for name, tenant in tenants.items()
        }
        costs: dict[tuple[str, int, int], tuple[float, float, float]] = {}
        batch_cost = self._batch_cost
        max_retries = self.ras.max_retries
        deadline_status = self.ras.deadline_status
        deadline_set = self.ras.deadline_ms is not None
        # Bounded depth tracking: maintained only for the admission path
        # that actually reads it, pruned as arrivals move forward.
        backlog = Backlog(tenants, self.ras, ctl)
        push, full = backlog.push, backlog.full
        completed = Completions()
        shed: list[tuple[Request, str]] = []
        served = [False] * len(trace)
        last = len(trace) - 1
        free_at = 0.0
        for index, head in enumerate(trace):
            if served[index]:
                continue
            name = head.tenant
            health = healths[name]
            now = head.arrival_ns
            if ctl is not None:
                key = (name, health.available, 1)
                cost = costs.get(key)
                if cost is None:
                    cost = costs[key] = batch_cost(*key)
                decision = ctl.admit(
                    head.slo_class, backlog, now,
                    max(0.0, free_at - now), cost[0],
                )
                if not decision.admitted:
                    shed.append((head, decision.reason))
                    continue
            elif full(name, now):
                shed.append((head, "queue-full"))
                continue
            start = free_at if free_at > now else now
            tenant = tenants[name]
            # Arrivals are non-decreasing: when the next request arrives
            # past the batching horizon, none can join and the batch is the
            # head alone.
            if (
                tenant.max_batch == 1
                or index == last
                or trace[index + 1].arrival_ns > start + windows_ns[name]
            ):
                batch = [head]
            else:
                batch = self._collect_batch(trace, index, start, tenant, served)
                # Continuous batching: the launch waits for its last joiner.
                start = max(start, batch[-1].arrival_ns)
            size = len(batch)
            available = health.available
            degraded = available < health.configured
            key = (name, available, size)
            cost = costs.get(key)
            if cost is None:
                cost = costs[key] = batch_cost(*key)
            service, p_fatal, p_transient = cost
            finish = start
            retries = 0
            while True:
                finish += service
                if p_fatal > 0.0 and draw() < p_fatal:
                    health.record_failure(randrange(health.available))
                    status = "failed"
                    break
                if not (p_transient > 0.0 and draw() < p_transient):
                    health.record_success()
                    status = "ok"
                    break
                retries += 1
                if retries > max_retries:
                    status = "failed"
                    break
                finish += backoff_ns(retries)
            if size == 1:
                if deadline_set:
                    status = deadline_status(status, head, finish)
                completed.add_one(head, start, finish, status, retries, degraded)
            else:
                if deadline_set:
                    statuses = [
                        deadline_status(status, request, finish)
                        for request in batch
                    ]
                else:
                    statuses = [status] * size
                completed.add(batch, start, finish, statuses, retries, degraded)
            push(batch, finish)
            free_at = finish
        return completed, shed

    # -- reporting ----------------------------------------------------------

    def _report(
        self,
        completed: Completions,
        trace: list[Request],
        shed: list[tuple[Request, str]] | None = None,
    ) -> dict[str, TenantReport]:
        shed = shed or []
        # Throughput horizon: the run lasts until the last completion, not
        # the last arrival (which overstates throughput for bursty traces).
        horizon_ns = max(completed.finish_ns, default=0.0)
        if horizon_ns <= 0.0:
            horizon_ns = max((r.arrival_ns for r in trace), default=0.0) or 1.0
        requests = completed.requests
        arrival_ns = np.asarray([r.arrival_ns for r in requests], dtype=float)
        finish_ns = np.asarray(completed.finish_ns, dtype=float)
        latency_ms = (finish_ns - arrival_ns) / 1e6
        ok = np.asarray([s == "ok" for s in completed.status], dtype=bool)
        retried = np.asarray(completed.retries, dtype=int) > 0
        degraded = np.asarray(completed.degraded, dtype=bool)
        batch_size = np.asarray(completed.batch_size, dtype=int)
        tenant_of = np.asarray([r.tenant for r in requests], dtype=object)
        shed_by = _by_tenant(shed, self.tenants, lambda entry: entry[0].tenant)
        reports = {}
        for name, tenant in self.tenants.items():
            rows = np.flatnonzero(tenant_of == name)
            served = rows[ok[rows]]
            my_shed = shed_by[name]
            shed_reasons: dict[str, int] = {}
            for _, reason in my_shed:
                shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
            by_class: dict[str, SloClassStats] = {}
            if self._admission_ctl is not None:
                book = ClassBook()
                for row, latency, served_ok in zip(
                    rows.tolist(), latency_ms[rows].tolist(), ok[rows].tolist()
                ):
                    if served_ok:
                        book.served(requests[row].slo_class).append(latency)
                    else:
                        book.fail(requests[row].slo_class)
                for request, reason in my_shed:
                    book.shed(request.slo_class, reason)
                by_class = book.finish()
            latencies = latency_ms[served]
            p50, p95, p99 = tail_percentiles(latencies)
            violations = 0
            if tenant.sla_ms is not None:
                violations = int((latencies > tenant.sla_ms).sum())
            reports[name] = TenantReport(
                tenant=name,
                completed=len(served),
                throughput_per_s=len(served) * 1e9 / horizon_ns,
                p50_ms=p50,
                p95_ms=p95,
                p99_ms=p99,
                mean_batch=(
                    float(np.mean(batch_size[served])) if len(served) else 0.0
                ),
                sla_ms=tenant.sla_ms,
                sla_violations=violations,
                failed=len(rows) - len(served),
                retried=int(retried[rows].sum()),
                shed=len(my_shed),
                degraded=int(degraded[rows].sum()),
                shed_reasons=shed_reasons,
                by_class=by_class,
            )
        return reports


def _by_tenant(items, names, tenant_of) -> dict[str, list]:
    """``items`` split per tenant name in one pass, keeping their order.

    Every item's tenant is in ``names`` (``validate_trace`` holds the
    trace to it).
    """
    groups: dict[str, list] = {name: [] for name in names}
    for item in items:
        groups[tenant_of(item)].append(item)
    return groups
