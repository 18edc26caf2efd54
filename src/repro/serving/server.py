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
ECC, core hang) faults from a deterministic per-run RNG, at the plan's
per-event rates compounded over ``TRANSFERS_PER_REQUEST`` hardware
events per inference. The server *survives* them:

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
from collections.abc import Iterator
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
from repro.serving.routing import Backlog, PrunedFinishes
from repro.serving.workload import Request


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
#: Hardware fault events one inference is exposed to (per sample).
TRANSFERS_PER_REQUEST = 16


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

    def queue_full(self, finishes: PrunedFinishes, now: float) -> bool:
        """Flat admission: is the tenant's queue at ``queue_depth_limit``?

        ``finishes`` holds the finish times of the tenant's scheduled
        requests; entries still beyond ``now`` are queued or in service.
        """
        limit = self.queue_depth_limit
        return limit is not None and finishes.depth(now) >= limit


class TenantHealth:
    """Per-group failure tracking + circuit breaker for one tenant slice."""

    def __init__(self, groups: int, threshold: int, min_groups: int) -> None:
        self.configured = groups
        self.available = groups
        self.threshold = threshold
        self.min_groups = min(min_groups, groups)
        self.breaker_trips = 0
        self._failures = [0] * groups  # consecutive faults per live group

    @property
    def degraded(self) -> bool:
        return self.available < self.configured

    def record_success(self) -> None:
        """A clean service clears every live group's failure streak."""
        if any(self._failures):
            self._failures = [0] * len(self._failures)

    def record_failure(self, slot: int) -> bool:
        """Attribute one fatal fault; returns True when the breaker trips
        and the slice degrades (the failed group is routed around)."""
        self._failures[slot] += 1
        if self._failures[slot] >= self.threshold and self.available > self.min_groups:
            self.available -= 1
            self.breaker_trips += 1
            del self._failures[slot]
            return True
        return False

    def restore_group(self) -> bool:
        """Reintegrate one routed-around group after repair.

        The repaired group rejoins with a clean failure streak; returns
        False (no-op) when the slice is already at full strength. This is
        the path fleet repair drives when a quarantined device comes back.
        """
        if self.available >= self.configured:
            return False
        self.available += 1
        self._failures.append(0)
        return True

    def reset(self) -> None:
        """Full circuit-breaker reset: all groups live, streaks cleared.

        ``breaker_trips`` is cumulative history and survives the reset.
        """
        self.available = self.configured
        self._failures = [0] * self.configured


@dataclass
class CompletedRequest:
    """Outcome of one request."""

    request: Request
    start_ns: float
    finish_ns: float
    batch_size: int
    status: str = "ok"
    """'ok' or 'failed' (fatal fault / retries exhausted)."""
    retries: int = 0
    """Service replays this request's batch needed."""
    degraded: bool = False
    """Served on a circuit-breaker-degraded group slice."""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_ms(self) -> float:
        return (self.finish_ns - self.request.arrival_ns) / 1e6

    @property
    def queue_ms(self) -> float:
        return (self.start_ns - self.request.arrival_ns) / 1e6


class Completions:
    """Completed requests as parallel columns, in completion order.

    A served batch appends each column once, so replaying a trace builds
    no object per request and leaves the cyclic garbage collector nothing
    new to track. Iterating yields :class:`CompletedRequest` rows.
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

    def __iter__(self) -> Iterator[CompletedRequest]:
        return map(
            CompletedRequest, self.requests, self.start_ns, self.finish_ns,
            self.batch_size, self.status, self.retries, self.degraded,
        )


@dataclass
class SloClassStats:
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

    def set_percentiles(self, latencies_ms: list[float], buckets) -> None:
        """Fill p50/p95/p99 from bucket interpolation (0s when empty)."""
        from repro.obs.metrics import HistogramSeries

        if not latencies_ms:
            return
        series = HistogramSeries(tuple(buckets))
        for value in latencies_ms:
            series.observe(value)
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

    Requests are booked as they settle (served with a latency, failed, or
    shed with a reason); :meth:`finish` fills the bucket-interpolated
    percentiles and returns the classes in name order.
    """

    def __init__(self) -> None:
        self._stats: dict[str, SloClassStats] = {}
        self._latencies: dict[str, list[float]] = {}

    def _entry(self, slo_class: str) -> SloClassStats:
        entry = self._stats.get(slo_class)
        if entry is None:
            entry = self._stats[slo_class] = SloClassStats(slo_class=slo_class)
        entry.offered += 1
        return entry

    def settle(self, slo_class: str, latency_ms: float | None) -> None:
        """One completed request: served at ``latency_ms``, or failed."""
        entry = self._entry(slo_class)
        if latency_ms is None:
            entry.failed += 1
        else:
            entry.served += 1
            self._latencies.setdefault(slo_class, []).append(latency_ms)

    def shed(self, slo_class: str, reason: str) -> None:
        self._entry(slo_class).record_shed(reason)

    def finish(self) -> dict[str, SloClassStats]:
        from repro.obs.metrics import DEFAULT_BUCKETS_MS

        for slo_class, values in self._latencies.items():
            self._stats[slo_class].set_percentiles(values, DEFAULT_BUCKETS_MS)
        return dict(sorted(self._stats.items()))


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
    device = Device(accelerator)
    compiled = device.compile(build(model), batch=1)
    measure_handle = None
    if obs is not None:
        measure_handle = obs.tracer.begin(
            f"measure:{model}x{groups}", layer="serving",
            start_ns=accelerator.sim.now, track="measurement",
            model=model, groups=groups,
        )
    result = device.launch(
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
        degraded_service_times_ns: dict[tuple[str, int], float] | None = None,
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
        self.fault_plan = fault_plan
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
        # times fall back to linear scaling unless overridden explicitly.
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
        self._degraded_times: dict[tuple[str, int], float] = dict(
            degraded_service_times_ns or {}
        )
        self._odds: dict[int, tuple[float, float]] = {}

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

    # -- fault draws -----------------------------------------------------------

    def attempt_odds(self, batch_size: int) -> tuple[float, float]:
        """``(p_fatal, p_transient)`` of one service attempt of a batch.

        Each compounds the plan's per-event rate over
        ``TRANSFERS_PER_REQUEST * batch_size`` hardware events. Without a
        plan, or with zero fatal and transient rates, both are 0 and an
        attempt draws nothing. Resolved once per batch size.
        """
        odds = self._odds.get(batch_size)
        if odds is None:
            plan = self.fault_plan
            fatal, transient = (
                (plan.fatal_event_rate, plan.transient_event_rate)
                if plan is not None
                else (0.0, 0.0)
            )
            events = TRANSFERS_PER_REQUEST * batch_size
            odds = self._odds[batch_size] = (
                1.0 - (1.0 - fatal) ** events,
                1.0 - (1.0 - transient) ** events,
            )
        return odds

    def _serve_batch(
        self,
        batch_size: int,
        start_ns: float,
        base_ns: float,
        health: TenantHealth,
        rng: random.Random,
    ) -> tuple[float, str, int]:
        """Serve one batch with RAS retries; returns (finish, status, retries).

        Each attempt pays the full batch service time; transient faults
        add exponential backoff then replay, fatal faults fail the batch
        and feed the circuit breaker.
        """
        p_fatal, p_transient = self.attempt_odds(batch_size)
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

    # -- simulation ----------------------------------------------------------

    def run(self, trace: list[Request]) -> dict[str, TenantReport]:
        """Replay the trace; returns per-tenant serving statistics.

        Isolated mode: one server (the tenant's group slice) per tenant.
        Shared mode: a single FIFO server processes everything in arrival
        order — head-of-line blocking included, though same-tenant waiting
        requests still coalesce into batches.

        Deterministic: the same trace, fault plan and RAS config always
        produce identical reports (per-run RNGs are re-seeded from the
        plan seed on every call).
        """
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
        for request in sorted(completed, key=lambda c: c.request.request_id):
            tenant = request.request.tenant
            root = tracer.begin(
                f"request:{request.request.request_id}", layer="serving",
                start_ns=request.request.arrival_ns,
                track=f"tenant.{tenant}", tenant=tenant,
            )
            if request.start_ns > request.request.arrival_ns:
                tracer.add_span(
                    "queue", layer="serving",
                    start_ns=request.request.arrival_ns,
                    end_ns=request.start_ns,
                    parent=root.context, track=f"tenant.{tenant}",
                )
            tracer.add_span(
                "service", layer="serving",
                start_ns=request.start_ns, end_ns=request.finish_ns,
                parent=root.context, track=f"tenant.{tenant}",
                batch=request.batch_size, retries=request.retries,
                status=request.status, degraded=request.degraded,
            )
            root.end(
                request.finish_ns,
                status=request.status, batch=request.batch_size,
            )
            requests_total.inc(tenant=tenant, status=request.status)
            if request.ok:
                latency_hist.observe(request.latency_ms, tenant=tenant)
                queue_hist.observe(request.queue_ms, tenant=tenant)
                batch_hist.observe(request.batch_size, tenant=tenant)
                if classes_in_play:
                    class_latency.observe(
                        request.latency_ms, tenant=tenant,
                        slo_class=request.request.slo_class,
                    )
            if request.retries:
                retries_total.inc(request.retries, tenant=tenant)
            if request.degraded:
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
        seed = self.fault_plan.seed if self.fault_plan is not None else 0
        return derive_rng(seed, label)

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
        """
        ctl = self._admission_ctl
        if ctl is not None:
            ctl.reset()  # a queue never inherits another queue's brownout
        rng = self._rng(rng_label)
        healths = {
            name: TenantHealth(
                tenant.groups, self.ras.breaker_threshold, self.ras.min_groups
            )
            for name, tenant in self.tenants.items()
        }
        # Bounded depth tracking: maintained only for the admission path
        # that actually reads it, pruned as arrivals move forward.
        backlog = Backlog(self.tenants, self.ras, ctl)
        push, tenant_finishes = backlog.push, backlog.tenants
        deadline_status = self.ras.deadline_status
        queue_full = self.ras.queue_full
        completed = Completions()
        shed: list[tuple[Request, str]] = []
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
                    head.slo_class, backlog.class_depths(now),
                    max(0.0, free_at - now), batch_service_time_ns(base, 1),
                )
                if not decision.admitted:
                    shed.append((head, decision.reason))
                    continue
            elif queue_full(tenant_finishes[head.tenant], now):
                shed.append((head, "queue-full"))
                continue
            start = max(now, free_at)
            batch = self._collect_batch(trace, index, start, tenant, served)
            # Continuous batching: the launch waits for its last joiner.
            start = max(start, batch[-1].arrival_ns)
            base = self._service_time(head.tenant, health.available)
            degraded = health.degraded
            finish, status, retries = self._serve_batch(
                len(batch), start, base, health, rng
            )
            completed.add(
                batch, start, finish,
                [deadline_status(status, request, finish) for request in batch],
                retries, degraded,
            )
            for request in batch:
                push(request, finish)
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
                    book.settle(
                        requests[row].slo_class, latency if served_ok else None
                    )
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

    Items of a tenant not in ``names`` are dropped.
    """
    groups: dict[str, list] = {name: [] for name in names}
    for item in items:
        mine = groups.get(tenant_of(item))
        if mine is not None:
            mine.append(item)
    return groups
