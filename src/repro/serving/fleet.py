"""Fleet-level resilience: multi-device failover, quarantine and repair.

One :class:`~repro.serving.server.InferenceServer` survives *request*
faults inside a single card (retries, admission control, per-group circuit
breaking). At cloud scale the unit of failure is the whole device — the
paper positions the i20 as a datacenter inference part, and fleet behavior
(Jouppi et al.'s observation for TPU pods) dominates serving reliability.
This module adds that layer:

- :class:`FleetManager` owns N+M simulated :class:`~repro.runtime.Device`
  replicas (N active, M hot spares) with stable per-replica ids; each
  card is opened through ``Device.open`` on the replica's first launch,
  and the fleet compiles each tenant model **once**, through the shared
  :data:`~repro.caching.COMPILE_CACHE`;
- tenant traffic routes to the least-loaded healthy replica; a fatal
  outcome triggers a **hedged re-dispatch** on another healthy replica, so
  a dying board costs latency, not requests;
- per-device health is scored from fault outcomes:
  ``quarantine_threshold`` consecutive fatals drive the
  **quarantine → repair → reintegrate** lifecycle — the replica drains, a
  hot spare is promoted in its place, and after ``repair_ms`` a *real
  probe launch* on the simulated device (with the fault schedule's
  plan at probe time attached) must come back clean before the board
  rejoins the pool (as active, or as a standby spare when the fleet is
  already at strength); repeated probe failures retire the board;
- every stochastic choice derives from one fleet seed via labeled streams
  (:mod:`repro.seeding`), so a whole fleet run — reports included — is
  byte-for-byte reproducible.

Time-varying fault pressure comes from a
:class:`~repro.faults.schedule.FaultSchedule` (storm windows, ramps,
device kills); :mod:`repro.chaos` composes those into checked scenarios.
See docs/robustness.md for the lifecycle state machine and the invariant
catalogue the chaos harness enforces on top of this layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.errors import ReproRuntimeError, reject_non_finite
from repro.faults.errors import HardwareFault
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.models.zoo import build
from repro.runtime.runtime import Device
from repro.seeding import derive_rng, derive_seed
from repro.serving.routing import Backlog, HeapRouter, ReplicaStatus
from repro.serving.server import (
    ClassBook,
    RasConfig,
    RequestLedger,
    SloClassStats,
    TenantConfig,
    backoff_ns,
    batch_service_time_ns,
    measure_service_time_ns,
    tail_percentiles,
)
from repro.serving.workload import Request, validate_trace

__all__ = [
    "DeviceReport",
    "FleetConfig",
    "FleetManager",
    "FleetReport",
    "FleetTenantStats",
    "LifecycleEvent",
    "ReplicaStatus",
    "metric_samples",
]

#: Failed repair probes before a quarantined replica is retired.
MAX_REPAIR_ATTEMPTS = 4
#: Re-dispatches of one request after fatal outcomes before it fails.
MAX_HEDGES = 2
#: A first dispatch excludes no replica; a hedge builds a new set.
_NO_REPLICAS: frozenset[int] = frozenset()


@dataclass(frozen=True)
class FleetConfig:
    """Sizing + lifecycle policy for one :class:`FleetManager`."""

    replicas: int = 2
    """Target number of active (traffic-taking) replicas."""
    hot_spares: int = 0
    """Standby devices promoted when an active replica quarantines."""
    device: str = "i20"
    """Product name every replica is opened as (``Device.open``)."""
    seed: int = 0
    """Root seed: every RNG stream of the fleet derives from it."""
    quarantine_threshold: int = 2
    """Consecutive fatal outcomes on one replica that quarantine it."""
    repair_ms: float = 25.0
    """Sim-time dwell between quarantine (or a failed probe) and the
    next repair probe."""
    validate_on_open: bool = True
    """Run one real launch per replica at bring-up to prove the board
    (which opens every replica's card at bring-up, in index order)."""
    screen_vectors: int = 1
    """Real launches per repair probe. The historical single-launch probe
    (``1``, the default — byte-identical) can pass a board that corrupts
    only some operand patterns; multi-vector probes launch ``n`` seeded
    vectors and require all of them clean before reintegration."""

    def __post_init__(self) -> None:
        def reject(message: str) -> None:
            raise ReproRuntimeError(f"FleetConfig: {message}")

        reject_non_finite(self)
        if self.replicas < 1:
            reject(f"replicas must be >= 1, got {self.replicas}")
        if self.hot_spares < 0:
            reject(f"hot_spares must be >= 0, got {self.hot_spares}")
        if self.quarantine_threshold < 1:
            reject(
                f"quarantine_threshold must be >= 1, "
                f"got {self.quarantine_threshold}"
            )
        if self.repair_ms <= 0:
            reject(f"repair_ms must be > 0, got {self.repair_ms}")
        if self.screen_vectors < 1:
            reject(f"screen_vectors must be >= 1, got {self.screen_vectors}")


@dataclass(frozen=True)
class LifecycleEvent:
    """One fleet lifecycle transition, on the trace timeline."""

    time_ns: float
    device: str
    kind: str
    """``opened``/``validated``/``quarantined``/``promoted``/
    ``repair_failed``/``repaired``/``reintegrated``/``retired``/
    ``scaled-up``/``scaled-down`` (autoscaler-driven)/``screen_failed``
    (SDC screen). The report's lifecycle counts are tallies of these."""
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "time_ns": self.time_ns, "device": self.device,
            "kind": self.kind, "detail": self.detail,
        }


@dataclass
class FleetTenantStats(RequestLedger):
    """Per-tenant request accounting over one fleet run; its
    ``availability_while_healthy`` is the floor the chaos invariants hold
    the fleet to."""

    tenant: str
    offered: int = 0
    served: int = 0
    failed: int = 0
    shed: int = 0
    """Every dropped-before-service request (admission + no capacity)."""
    hedged: int = 0
    """Served-or-failed requests that needed >= 1 re-dispatch."""
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    """Shed counts by reason: ``queue-full``/``deadline``/``brownout``
    from the admission door, ``no-capacity`` when no replica could take
    the request; empty when nothing was shed."""
    by_class: dict[str, SloClassStats] = field(default_factory=dict)
    """Per-SLO-class breakdown (populated when admission is attached)."""

    @property
    def shed_no_capacity(self) -> int:
        """Subset of ``shed`` that arrived while zero replicas were active."""
        return self.shed_for("no-capacity")

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant, "offered": self.offered,
            "served": self.served, "failed": self.failed,
            "shed": self.shed, "shed_no_capacity": self.shed_no_capacity,
            "hedged": self.hedged, "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms, "p99_ms": self.p99_ms,
            "availability": self.availability,
            "availability_while_healthy": self.availability_while_healthy,
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "by_class": {
                name: stats.to_dict()
                for name, stats in sorted(self.by_class.items())
            },
        }


@dataclass
class DeviceReport:
    """Health summary of one replica over a fleet run."""

    name: str
    device_id: str
    final_status: str
    served: int
    fatal_outcomes: int
    quarantines: int
    repair_attempts: int
    reintegrations: int
    injected_faults: int
    """Hardware faults the board's injectors recorded (bring-up
    validation + repair probes)."""

    def to_dict(self) -> dict:
        return {
            "name": self.name, "device_id": self.device_id,
            "final_status": self.final_status, "served": self.served,
            "fatal_outcomes": self.fatal_outcomes,
            "quarantines": self.quarantines,
            "repair_attempts": self.repair_attempts,
            "reintegrations": self.reintegrations,
            "injected_faults": self.injected_faults,
        }


@dataclass
class FleetReport:
    """Everything one fleet run produced, JSON-stable for chaos pinning."""

    seed: int
    replicas: int
    hot_spares: int
    tenants: dict[str, FleetTenantStats]
    devices: list[DeviceReport]
    events: list[LifecycleEvent]
    failovers: int
    hedged_requests: int
    quarantines: int
    repairs: int
    repair_failures: int
    reintegrations: int
    promotions: int
    retirements: int
    min_healthy: int
    final_healthy: int
    horizon_ns: float
    autoscale_ups: int = 0
    """Standby promotions the autoscaler drove (not failover promotions)."""
    autoscale_downs: int = 0
    """Active replicas the autoscaler drained back to standby."""
    autoscale_reversals: int = 0
    """Up/down direction flips in the action history (flap measure)."""
    max_brownout_level: int = 0
    """Deepest brownout degradation level the admission layer reached."""
    peak_backpressure: float = 0.0
    """Worst per-class queue-fullness signal seen during the run."""
    power: dict | None = None
    """Fleet power governor section (None when no governor is attached;
    the key is omitted from ``to_dict`` then, so ungoverned reports stay
    byte-identical to builds without the power layer)."""
    sdc: dict | None = None
    """Silent-data-corruption section (None when no SdcConfig is
    attached; omitted from ``to_dict`` then — same conditional-key
    contract as ``power``). See :mod:`repro.serving.sdc`."""

    def to_dict(self) -> dict:
        """Deterministic nested-dict form (same run -> identical JSON)."""
        data = {
            "seed": self.seed,
            "replicas": self.replicas,
            "hot_spares": self.hot_spares,
            "tenants": {
                name: stats.to_dict()
                for name, stats in sorted(self.tenants.items())
            },
            "devices": [report.to_dict() for report in self.devices],
            "events": [event.to_dict() for event in self.events],
            "failovers": self.failovers,
            "hedged_requests": self.hedged_requests,
            "quarantines": self.quarantines,
            "repairs": self.repairs,
            "repair_failures": self.repair_failures,
            "reintegrations": self.reintegrations,
            "promotions": self.promotions,
            "retirements": self.retirements,
            "min_healthy": self.min_healthy,
            "final_healthy": self.final_healthy,
            "horizon_ns": self.horizon_ns,
            "autoscale_ups": self.autoscale_ups,
            "autoscale_downs": self.autoscale_downs,
            "autoscale_reversals": self.autoscale_reversals,
            "max_brownout_level": self.max_brownout_level,
            "peak_backpressure": self.peak_backpressure,
        }
        if self.power is not None:
            data["power"] = self.power
        if self.sdc is not None:
            data["sdc"] = self.sdc
        return data

    def device(self, name: str) -> DeviceReport:
        for report in self.devices:
            if report.name == name:
                return report
        raise KeyError(f"no device {name!r} in fleet report")

    def transitions(self, device: str) -> list[str]:
        """Time-ordered lifecycle kinds one device went through."""
        return [
            event.kind for event in self.events if event.device == device
        ]


@dataclass
class _Replica:
    """Mutable runtime state of one fleet member."""

    index: int
    name: str
    device_id: str
    injector: FaultInjector
    status: ReplicaStatus
    initial_status: ReplicaStatus
    device: Device | None = None
    """The simulated card, opened on first launch (:meth:`FleetManager._card`)."""
    free_at: float = 0.0
    consecutive_fatals: int = 0
    served: int = 0
    fatal_outcomes: int = 0
    probe_faults: int = 0
    repair_due_ns: float | None = None
    repair_attempts: int = 0
    power_dilation: float = 1.0
    """Service-time stretch the fleet power governor's cap imposes
    (1.0 = uncapped, as it stays with no governor attached)."""


class FleetManager:
    """Routes tenant traffic over a pool of simulated device replicas.

    The manager serves at request granularity against calibrated service
    times (one memoized simulator measurement per tenant model — see
    :func:`~repro.serving.server.measure_service_time_ns`), while the
    lifecycle machinery exercises the *real* devices: bring-up validation
    and repair probes are genuine :meth:`Device.launch` calls with fault
    injectors attached. Dynamic batching stays the single-server layer's
    job; the fleet routes whole requests (sharding/batching across
    replicas composes on top of this layer in later work).
    """

    def __init__(
        self,
        tenants: list[TenantConfig],
        config: FleetConfig | None = None,
        schedule: FaultSchedule | None = None,
        ras: RasConfig | None = None,
        obs=None,
        service_times_ns: dict[str, float] | None = None,
        admission=None,
        autoscaler=None,
        powercap=None,
        sdc=None,
    ) -> None:
        if not tenants:
            raise ReproRuntimeError("fleet needs at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ReproRuntimeError(f"duplicate tenant names: {names}")
        self.tenants = {tenant.name: tenant for tenant in tenants}
        self.config = config or FleetConfig()
        self.schedule = schedule or FaultSchedule()
        size = self.config.replicas + self.config.hot_spares
        for phase in self.schedule.phases:
            if phase.devices is not None and max(phase.devices) >= size:
                raise ReproRuntimeError(
                    f"storm targets replicas {phase.devices}, but the fleet "
                    f"has r0..r{size - 1}"
                )
        self.ras = ras or RasConfig()
        self.obs = obs
        # SLO-class admission (AdmissionPolicy) supersedes the flat
        # ras.queue_depth_limit; the autoscaler (AutoscalerConfig) drives
        # standby promotion / active drain on top of the failover
        # lifecycle. Both are optional and change nothing when absent.
        self.admission = admission
        self._admission_ctl = None
        if admission is not None:
            from repro.serving.admission import AdmissionController

            self._admission_ctl = AdmissionController(admission)
        self._autoscaler = None
        if autoscaler is not None:
            from repro.serving.autoscale import Autoscaler

            self._autoscaler = Autoscaler(autoscaler)
        # Silent-data-corruption defense (SdcConfig): ABFT result
        # checking, golden-vector screens, dual-execution audits and
        # corruption-aware containment. Optional; with no config the
        # tracker never exists and the serving path is bit-identical.
        self.sdc_config = sdc
        self._sdc = None
        self.service_times_ns = dict(service_times_ns or {})
        for tenant in tenants:
            if tenant.name not in self.service_times_ns:
                self.service_times_ns[tenant.name] = measure_service_time_ns(
                    tenant.model, tenant.groups, device=self.config.device
                )
        # Replica selection: the O(log N) heaps, pinned to the O(N)
        # ReferenceRouter scans by tests/serving/test_routing.py. The
        # governor and the SDC tracker steer it through its preference
        # sets (parked / avoid / suspected; see FleetRouter.route).
        self._router = HeapRouter()
        self._service_memo: dict[tuple[str, int], float] = {}
        self._group_next: list[int] = []
        self._bringup_events: list[LifecycleEvent] = []
        self._replicas = self._open_fleet(tenants)
        # The fleet power governor (PowerCapConfig) caps the rack budget
        # and dilates per-replica service under cap, inside the DVFS
        # envelope and TDP of the fleet's chip (read from r0's card,
        # which _open_fleet always opens). Optional: without it no power
        # state exists and every path below is bit-identical to an
        # ungoverned build.
        self._governor = None
        if powercap is not None:
            from repro.serving.powercap import FleetPowerGovernor

            self._governor = FleetPowerGovernor(
                powercap, self._replicas[0].device.accelerator.chip
            )

    # -- bring-up ------------------------------------------------------------

    def _open_fleet(self, tenants: list[TenantConfig]) -> list[_Replica]:
        """Set up N active + M standby replicas, compile every tenant once.

        Only the first replica's card opens here, because the tenant
        models compile through it (so an unknown device or a model that
        fails to compile still fails construction). Every other card
        opens on its replica's first launch — a bring-up validation or a
        repair probe — since a card's object graph dominates bring-up
        cost and most replicas of a large fleet never launch at all.
        """
        cfg = self.config
        replicas: list[_Replica] = []
        for index in range(cfg.replicas + cfg.hot_spares):
            name = f"r{index}"
            device_id = f"{cfg.device}-{name}"
            injector = FaultInjector(
                self.schedule.base,
                seed=derive_seed(cfg.seed, "injector", name),
                device=device_id,
            )
            role = (
                ReplicaStatus.ACTIVE
                if index < cfg.replicas
                else ReplicaStatus.STANDBY
            )
            replicas.append(
                _Replica(
                    index=index, name=name, device_id=device_id,
                    injector=injector, status=role, initial_status=role,
                )
            )
        # One lowering per tenant model for the whole fleet: replicas are
        # the same chip, so COMPILE_CACHE would hand every later replica
        # the identical CompiledModel anyway — compiling through the first
        # card and sharing the object skips the per-replica cache-key
        # hashing that dominated bring-up at thousands of devices.
        card = self._card(replicas[0])
        self._compiled = {
            tenant.name: card.compile(build(tenant.model), batch=1)
            for tenant in tenants
        }
        for replica in replicas:
            self._bringup_events.append(
                LifecycleEvent(
                    0.0, replica.name, "opened",
                    f"{replica.device_id} as {replica.initial_status.value}",
                )
            )
            if cfg.validate_on_open:
                self._validate(replica, tenants[0])
        return replicas

    def _card(self, replica: _Replica) -> Device:
        """The replica's simulated card, opened (faults attached) on first use."""
        if replica.device is None:
            replica.device = Device.open(
                self.config.device, obs=self.obs, device_id=replica.device_id
            )
            replica.device.accelerator.attach_faults(replica.injector)
        return replica.device

    def _validate(self, replica: _Replica, tenant: TenantConfig) -> None:
        """One real launch proves the board before it joins the pool."""
        try:
            self._card(replica).launch(
                self._compiled[tenant.name], num_groups=tenant.groups
            )
            detail = f"launch ok ({tenant.model}x{tenant.groups})"
        except HardwareFault as fault:
            detail = f"launch faulted: {fault}"
        self._bringup_events.append(
            LifecycleEvent(0.0, replica.name, "validated", detail)
        )

    # -- the run -------------------------------------------------------------

    def run(self, trace: list[Request]) -> FleetReport:
        """Replay a request trace over the fleet; returns the full report.

        Deterministic: the same trace, schedule, configs and seed always
        produce an identical report (every RNG stream is re-derived from
        the fleet seed on entry, and fleet state is reset to bring-up
        roles — re-running the same manager reproduces the same report).
        A trace that breaks the request contract
        (:func:`~repro.serving.workload.validate_trace`) raises before any
        state moves.
        """
        validate_trace(trace, self.tenants)
        self._reset()
        cfg = self.config
        router = self._router
        router.rebuild(self._replicas)
        router.parked = router.avoid = router.suspected = frozenset()
        governor = self._governor
        if governor is not None:
            governor.reset(self._replicas)
            self._apply_power_signals()
        self._sdc = None
        if self.sdc_config is not None:
            from repro.serving.sdc import SdcTracker

            self._sdc = SdcTracker(
                self.sdc_config, cfg.seed, self.schedule,
                [replica.name for replica in self._replicas],
            )
        rngs = {
            replica.name: derive_rng(cfg.seed, "serve", replica.name)
            for replica in self._replicas
        }
        events: list[LifecycleEvent] = list(self._bringup_events)
        stats = {name: FleetTenantStats(tenant=name) for name in self.tenants}
        latencies: dict[str, list[float]] = {name: [] for name in self.tenants}
        ctl = self._admission_ctl
        autoscaler = self._autoscaler
        # Per-class accounting exists only under an admission policy.
        books = (
            {name: ClassBook() for name in self.tenants}
            if ctl is not None
            else None
        )
        # Bounded per-tenant / fleet-wide per-class finish times: the
        # admission layer's queue depths and backpressure read these (the
        # fleet is one shared pool). Maintained only when something reads
        # them, and pruned as depth queries move forward in time.
        backlog = Backlog(self.tenants, self.ras, ctl)
        deadline_status = self.ras.deadline_status
        service_times = self.service_times_ns
        # Continuous batching applies to tenants with a coalescing window
        # and room for more than one request; the rest dispatch alone.
        coalescing = {
            name for name, tenant in self.tenants.items()
            if tenant.coalesce_window_ms > 0 and tenant.max_batch > 1
        }
        counters = _RunCounters(min_healthy=router.active_count())
        horizon = 0.0
        # The per-(tenant, class) chain the coalescer walks instead of
        # rescanning forward.
        self._group_next = self._group_chains(trace, coalescing)
        joined = [False] * len(trace)
        # Governor windows, autoscaler ticks and SDC screen ticks, each a
        # [due_ns, rank, period_ns, tick] entry, step in (due, rank)
        # order: on ties caps land before the scale decision reads them,
        # and screens go last.
        schedule: list[list] = []
        window = screen = None
        if governor is not None:
            window = [
                governor.window_ns, 0, governor.window_ns,
                self._powercap_tick,
            ]
            schedule.append(window)
        if autoscaler is not None:
            interval = autoscaler.config.eval_interval_ms * 1e6
            schedule.append([
                interval, 1, interval,
                lambda now: self._autoscale_tick(
                    now, backlog, events, counters
                ),
            ])
        sdc_config = self.sdc_config
        if sdc_config is not None and sdc_config.screen_interval_ms is not None:
            interval = sdc_config.screen_interval_ms * 1e6
            screen = [
                interval, 2, interval,
                lambda now: self._screen_tick(now, events, counters),
            ]
            schedule.append(screen)
        next_due = min(schedule)[0] if schedule else float("inf")
        for index, request in enumerate(trace):
            if joined[index]:
                continue  # coalesced into an earlier batch, accounted there
            arrival = request.arrival_ns
            while next_due <= arrival:
                _step(min(schedule))
                next_due = min(schedule)[0]
            router.advance(arrival)
            self._advance(arrival, events, counters)
            tenant_stats = stats[request.tenant]
            book = books[request.tenant] if books is not None else None
            tenant_stats.offered += 1
            # Parked replicas are powered off by the cap: they sit in the
            # routing pool but cannot take traffic, so a fully parked
            # fleet sheds for lack of capacity like a fully quarantined one.
            if not router.routable_count():
                self._note_shed(tenant_stats, book, request, "no-capacity")
                continue
            # Admission at the fleet door. An AdmissionPolicy gives the
            # request's SLO class the full treatment (bounded per-class
            # queue, deadline-aware early shedding, brownout) on
            # fleet-wide class depths, with the power governor's
            # throttle pressure as a brownout floor; without one, the
            # flat per-tenant ras.queue_depth_limit applies.
            if ctl is not None:
                decision = ctl.admit(
                    request.slo_class, backlog, arrival,
                    router.earliest_start(arrival) - arrival,
                    service_times[request.tenant],
                    governor.power_pressure() if governor is not None
                    else 0.0,
                )
                if not decision.admitted:
                    self._note_shed(
                        tenant_stats, book, request, decision.reason
                    )
                    continue
            elif backlog.full(request.tenant, arrival):
                self._note_shed(tenant_stats, book, request, "queue-full")
                continue
            members = (
                self._coalesce(trace, index, joined)
                if request.tenant in coalescing else [request]
            )
            tenant_stats.offered += len(members) - 1
            finish, status, hedges = self._dispatch(
                members, rngs, events, counters
            )
            if hedges:
                tenant_stats.hedged += len(members)
            # A batch shares its head's tenant and SLO class.
            served = latencies[request.tenant]
            class_served = (
                book.served(request.slo_class) if book is not None else None
            )
            failed = 0
            for member in members:
                if deadline_status(status, member, finish) != "ok":
                    failed += 1
                    continue
                latency_ms = (finish - member.arrival_ns) / 1e6
                served.append(latency_ms)
                if class_served is not None:
                    class_served.append(latency_ms)
                if autoscaler is not None:
                    autoscaler.observe(member.slo_class, latency_ms)
            tenant_stats.served += len(members) - failed
            tenant_stats.failed += failed
            if failed and book is not None:
                book.fail(request.slo_class, failed)
            backlog.push(members, finish)
            horizon = max(horizon, finish)
        # Let the screener finish sweeping the served interval, so
        # corruption served near the end of the trace still gets its
        # conviction (and its detection-latency sample) on record.
        while screen is not None and screen[0] <= horizon:
            _step(screen)
        self._advance(None, events, counters)
        # Close governor windows until every occupied interval is
        # accounted, so the energy integral covers the whole run.
        while window is not None and window[0] - window[2] < horizon:
            _step(window)
        for name, entry in stats.items():
            entry.p50_ms, entry.p95_ms, entry.p99_ms = tail_percentiles(
                latencies[name]
            )
            if books is not None:
                entry.by_class = books[name].finish()
        events.sort(key=lambda event: event.time_ns)
        horizon = max(
            [horizon] + [event.time_ns for event in events] or [0.0]
        )
        report = self._report(stats, events, counters, horizon)
        if self.obs is not None:
            self._export_obs(report)
        return report

    @staticmethod
    def _group_chains(trace: list[Request], coalescing: set[str]) -> list[int]:
        """``chain[i]`` = index of the next same-(tenant, class) request
        after ``i`` (-1 at the tail) — the coalescer walks this instead
        of rescanning every following arrival. Only the ``coalescing``
        tenants' requests are linked: no other chain is ever walked."""
        chain = [-1] * len(trace)
        if not coalescing:
            return chain
        last: dict[tuple[str, str], int] = {}
        for index in range(len(trace) - 1, -1, -1):
            request = trace[index]
            if request.tenant in coalescing:
                key = (request.tenant, request.slo_class)
                chain[index] = last.get(key, -1)
                last[key] = index
        return chain

    @staticmethod
    def _note_shed(
        tenant_stats: FleetTenantStats,
        book: ClassBook | None,
        request: Request,
        reason: str,
    ) -> None:
        tenant_stats.shed += 1
        tenant_stats.shed_reasons[reason] = (
            tenant_stats.shed_reasons.get(reason, 0) + 1
        )
        if book is not None:
            book.shed(request.slo_class, reason)

    def _coalesce(
        self, trace: list[Request], index: int, joined: list[bool]
    ) -> list[Request]:
        """Continuous batching: same-(tenant, class) arrivals inside the
        coalescing window ride along with the head request.

        The window is anchored at the batch's earliest possible start
        (the least-loaded active replica's free time); joiners bypass the
        per-arrival admission checks — they consume a batch slot that is
        already paid for, not queue depth. :meth:`run` calls this only
        for a tenant with a window and ``max_batch`` > 1; every other
        head dispatches alone, as in the unbatched fleet.
        """
        head = trace[index]
        tenant = self.tenants[head.tenant]
        members = [head]
        window_ns = tenant.coalesce_window_ms * 1e6
        start = self._router.earliest_start(head.arrival_ns)
        horizon = start + window_ns
        # Walk the precomputed same-(tenant, class) chain: arrivals are
        # non-decreasing, so stopping at the first chain member past the
        # horizon visits exactly the candidates the forward scan did.
        probe = self._group_next[index]
        while (
            probe != -1
            and len(members) < tenant.max_batch
            and trace[probe].arrival_ns <= horizon
        ):
            if not joined[probe]:
                members.append(trace[probe])
                joined[probe] = True
            probe = self._group_next[probe]
        return members

    def _powercap_tick(self, now: float) -> None:
        """One governor window: account draw, re-apportion caps, refresh
        the dilation/routing signals the serving path reads."""
        governor = self._governor
        governor.close_window(
            now, [replica.status for replica in self._replicas]
        )
        self._apply_power_signals()

    def _apply_power_signals(self) -> None:
        governor = self._governor
        dilations = governor.dilations()
        for replica in self._replicas:
            replica.power_dilation = dilations[replica.index]
        self._router.avoid = governor.avoid_indices()
        self._router.parked = governor.parked_indices()

    def _autoscale_tick(
        self,
        now: float,
        backlog: Backlog,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> None:
        """One autoscaler evaluation: promote a standby or drain an
        active replica back to standby (never below one, never past the
        devices the fleet actually opened)."""
        self._advance(now, events, counters)
        scaler = self._autoscaler
        router = self._router
        n_active = router.active_count()
        backpressure = 0.0
        if self._admission_ctl is not None:
            backpressure = self._admission_ctl.backpressure(backlog, now)
        power_feasible = True
        if self._governor is not None:
            backpressure = max(
                backpressure, self._governor.power_pressure()
            )
            power_feasible = self._governor.can_power_promotion(n_active)
        spare = router.standby()
        delta = scaler.evaluate(
            now, n_active, backpressure,
            can_up=spare is not None,
            can_down=n_active > 1,
            power_feasible=power_feasible,
        )
        if delta > 0:
            spare.status = ReplicaStatus.ACTIVE
            spare.free_at = max(spare.free_at, now)
            router.update(spare)
            events.append(
                LifecycleEvent(
                    now, spare.name, "scaled-up",
                    scaler.actions[-1].reason,
                )
            )
        elif delta < 0:
            victim = router.drain_victim()
            victim.status = ReplicaStatus.STANDBY
            router.update(victim)
            events.append(
                LifecycleEvent(
                    now, victim.name, "scaled-down",
                    scaler.actions[-1].reason,
                )
            )
        counters.note_healthy(router.active_count())

    def _reset(self) -> None:
        """Restore bring-up roles so repeated runs are reproducible."""
        for replica in self._replicas:
            replica.status = replica.initial_status
            replica.free_at = 0.0
            replica.consecutive_fatals = 0
            replica.served = 0
            replica.fatal_outcomes = 0
            replica.probe_faults = 0
            replica.repair_due_ns = None
            replica.repair_attempts = 0
            replica.power_dilation = 1.0
        if self._admission_ctl is not None:
            self._admission_ctl.reset()
        if self._autoscaler is not None:
            self._autoscaler.reset()

    # -- routing + serving ---------------------------------------------------

    def _dispatch(
        self,
        members: list[Request],
        rngs: dict,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> tuple[float, str, int]:
        """Serve one batch with hedged re-dispatch across replicas.

        Returns ``(finish_ns, status, hedges)``. A fatal outcome marks the
        replica (possibly quarantining it), then the batch re-dispatches
        to the next least-loaded healthy replica at the failure time —
        up to ``MAX_HEDGES`` times before the batch is declared failed.
        ``members`` is usually one request; continuous batching passes
        the coalesced group, which lives and dies together.
        """
        head = members[0]
        dispatch_ns = head.arrival_ns
        hedges = 0
        excluded = _NO_REPLICAS
        finish = dispatch_ns
        router = self._router
        tracker = self._sdc
        last_joiner_ns = members[-1].arrival_ns
        while True:
            replica = router.route(dispatch_ns, excluded)
            if replica is None:
                return finish, "failed", hedges
            if excluded:
                # A prior attempt died fatally and a healthy replica is
                # taking the batch over: that is one hedged failover.
                hedges += 1
                counters.failovers += 1
            start = max(dispatch_ns, replica.free_at)
            # Continuous batching: the launch waits for its last joiner.
            start = max(start, last_joiner_ns)
            finish, outcome, _retries, corrupted = self._attempt(
                replica, head.tenant, start, rngs[replica.name],
                batch=len(members),
            )
            # Fatal attempts burned power too: every occupied interval
            # feeds the governor's draw accounting.
            self._occupy(replica, start, finish)
            if tracker is not None:
                # ABFT detections inside _attempt queued containment
                # directives; apply them at the attempt's finish time.
                self._apply_sdc_actions(finish, events, counters)
            if outcome == "ok":
                if tracker is not None:
                    self._sdc_serve(
                        replica, head.tenant, len(members), corrupted,
                        finish, events, counters,
                    )
                replica.served += len(members)
                replica.consecutive_fatals = 0
                return finish, "ok", hedges
            replica.fatal_outcomes += 1
            replica.consecutive_fatals += 1
            if (
                replica.status is ReplicaStatus.ACTIVE
                and replica.consecutive_fatals
                >= self.config.quarantine_threshold
            ):
                self._quarantine(
                    replica, finish,
                    f"{replica.consecutive_fatals} consecutive fatal outcomes",
                    events, counters,
                )
            excluded = excluded | {replica.index}
            if hedges >= MAX_HEDGES:
                return finish, "failed", hedges
            dispatch_ns = finish

    def _attempt(
        self,
        replica: _Replica,
        tenant_name: str,
        start: float,
        rng,
        batch: int = 1,
    ) -> tuple[float, str, int, bool]:
        """One replica-local service: in-place retries, then ok/fatal.

        Fault pressure comes from the schedule's effective rates at each
        attempt's dispatch time on this replica — storms hit mid-flight
        requests. Zero rates consume no randomness, so quiet fleets stay
        bit-identical to the fault-free path.

        The fourth return element flags a *silently corrupted* ok result
        (always ``False`` without an SDC tracker). With result checking
        attached, an ABFT detection re-executes the batch in place —
        sharing the RAS retry budget, so a replica that corrupts every
        execution escalates to a fatal outcome and the ordinary
        quarantine machinery.
        """
        memo_key = (tenant_name, batch)
        service = self._service_memo.get(memo_key)
        if service is None:
            service = batch_service_time_ns(
                self.service_times_ns[tenant_name], batch
            )
            self._service_memo[memo_key] = service
        # The power cap's performance echo: a throttled device serves the
        # same work, stretched by the governor's dilation (exactly 1.0
        # when uncapped).
        service = service * replica.power_dilation
        tracker = self._sdc
        now = start
        retries = 0
        while True:
            p_fatal, p_transient, p_silent = self.schedule.plan_at(
                now, replica.index
            ).odds(batch)
            now += service
            if p_fatal > 0.0 and rng.random() < p_fatal:
                return now, "fatal", retries, False
            if p_transient > 0.0 and rng.random() < p_transient:
                retries += 1
                if retries > self.ras.max_retries:
                    return now, "fatal", retries, False
                now += backoff_ns(retries)
                continue
            corrupted = False
            if tracker is not None:
                corrupted = tracker.attempt_corrupted(replica.name, p_silent)
                if corrupted and tracker.abft_detects(replica.name):
                    # Caught before the result leaves the replica: the
                    # wrong answer is discarded and the batch re-executes.
                    tracker.note_detection(replica.index, "abft")
                    retries += 1
                    if retries > self.ras.max_retries:
                        return now, "fatal", retries, False
                    now += backoff_ns(retries)
                    continue
            return now, "ok", retries, corrupted

    # -- lifecycle -----------------------------------------------------------

    def _quarantine(
        self,
        replica: _Replica,
        now: float,
        detail: str,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> None:
        """Drain one active replica into quarantine, promoting a spare."""
        replica.status = ReplicaStatus.QUARANTINED
        replica.repair_due_ns = now + self.config.repair_ms * 1e6
        replica.repair_attempts = 0
        self._router.update(replica)
        events.append(
            LifecycleEvent(now, replica.name, "quarantined", detail)
        )
        self._promote_spare(replica.name, now, events)
        counters.note_healthy(self._router.active_count())

    def _promote_spare(
        self, replaced: str, now: float, events: list[LifecycleEvent]
    ) -> None:
        spare = self._router.standby()
        if spare is None:
            return
        spare.status = ReplicaStatus.ACTIVE
        spare.free_at = max(spare.free_at, now)
        self._router.update(spare)
        events.append(
            LifecycleEvent(
                now, spare.name, "promoted",
                f"hot spare replacing {replaced}",
            )
        )

    # -- silent-data-corruption defense (repro.serving.sdc) -------------------

    def _sdc_serve(
        self,
        replica: _Replica,
        tenant_name: str,
        batch: int,
        corrupted: bool,
        finish: float,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> None:
        """Post-serve SDC path: sampled dual-execution audit, then the
        served-corrupted ledger for anything nothing caught."""
        tracker = self._sdc
        if tracker.audit_selected():
            secondary = self._router.route(finish, {replica.index})
            if secondary is not None:
                tracker.audits_run += 1
                service = self._service_memo.get((tenant_name, batch))
                start = max(finish, secondary.free_at)
                audit_finish = start + service
                self._occupy(secondary, start, audit_finish)
                secondary_corrupted = tracker.audit_secondary_corrupted(
                    secondary.index, start
                )
                if corrupted or secondary_corrupted:
                    # Digest disagreement: a golden replay convicts the
                    # corrupting side(s) before the response ships.
                    if corrupted:
                        tracker.note_detection(
                            replica.index, "audit",
                            latency_ms=(audit_finish - finish) / 1e6,
                        )
                        corrupted = False
                    if secondary_corrupted:
                        tracker.note_detection(
                            secondary.index, "audit",
                            latency_ms=(audit_finish - start) / 1e6,
                        )
                    self._apply_sdc_actions(audit_finish, events, counters)
        if corrupted:
            # Nothing caught it: a wrong answer reached the client.
            tracker.note_served(replica.index, finish)

    def _screen_tick(
        self,
        now: float,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> None:
        """One screener cadence: golden-vector launches on idle replicas.

        Screens only take replicas that are both in the pool (active or
        standby) and idle at the tick — the screener steals no serving
        capacity from busy boards; a screened replica is occupied for
        ``screen_cost_ms``.
        """
        self._advance(now, events, counters)
        tracker = self._sdc
        cost_ns = tracker.config.screen_cost_ms * 1e6
        in_pool = (ReplicaStatus.ACTIVE, ReplicaStatus.STANDBY)
        for replica in self._replicas:
            if replica.status not in in_pool or replica.free_at > now:
                continue
            detections = tracker.screen_replica(replica.name, replica.index, now)
            if cost_ns > 0.0:
                self._occupy(replica, now, now + cost_ns)
            if detections:
                events.append(
                    LifecycleEvent(
                        now, replica.name, "screen_failed",
                        f"{detections} corrupted golden vector(s)",
                    )
                )
        self._apply_sdc_actions(now, events, counters)

    def _apply_sdc_actions(
        self,
        now: float,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> None:
        """Apply queued containment directives and refresh routing."""
        tracker = self._sdc
        for index, action in tracker.take_actions():
            replica = self._replicas[index]
            if action == "retire":
                if replica.status is ReplicaStatus.RETIRED:
                    continue
                was_active = replica.status is ReplicaStatus.ACTIVE
                replica.status = ReplicaStatus.RETIRED
                replica.repair_due_ns = None
                self._router.update(replica)
                tracker.sdc_retirements += 1
                events.append(
                    LifecycleEvent(
                        now, replica.name, "retired",
                        "repeat silent-corruption offender",
                    )
                )
                if was_active:
                    self._promote_spare(replica.name, now, events)
                counters.note_healthy(self._router.active_count())
            elif action == "quarantine":
                if replica.status is ReplicaStatus.ACTIVE:
                    tracker.sdc_quarantines += 1
                    self._quarantine(
                        replica, now, "silent corruption detected",
                        events, counters,
                    )
        self._router.suspected = tracker.suspected_frozen()

    def _occupy(self, replica: _Replica, start: float, finish: float) -> None:
        """Hold ``replica`` busy over ``[start, finish)``: routing sees its
        new free time, the power governor the occupied interval."""
        replica.free_at = finish
        self._router.update(replica)
        if self._governor is not None:
            self._governor.note_busy(replica.index, start, finish)

    def _advance(
        self,
        now: float | None,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> None:
        """Process every repair probe due at or before ``now``; ``None``
        (after the trace ends) runs every pending repair to completion, so
        the report shows each quarantine's final disposition."""
        router = self._router
        replica = router.due_repair(now)
        while replica is not None:
            self._probe(replica, events, counters)
            replica = router.due_repair(now)

    def _probe(
        self,
        replica: _Replica,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> None:
        """Seeded multi-vector repair screen on the quarantined board.

        Each vector is one real launch under the fault schedule's
        effective plan at the probe time — a probe inside a still-raging
        storm fails and extends the quarantine; all vectors clean
        reintegrates the board (active when the fleet is under strength,
        standby spare otherwise). ``screen_vectors=1`` (the default) is
        the historical single-launch probe, byte-identical including its
        seed derivation; more vectors catch boards that fault only on
        some operand patterns. With the SDC layer attached, a clean
        launch set must additionally pass a corruption screen under the
        same effective plan — a board that computes wrong numbers
        without raising cannot pass a probe that only waits for raises.
        """
        cfg = self.config
        due = replica.repair_due_ns
        attempt = replica.repair_attempts
        plan = self.schedule.plan_at(due, replica.index)
        probe_tenant = next(iter(self.tenants.values()))
        card = self._card(replica)
        ok, detail = True, ""
        for vector in range(cfg.screen_vectors):
            # Vector 0 keeps the historical seed label; extra vectors get
            # their own derived streams (catalogue in repro/seeding.py).
            if vector == 0:
                seed = derive_seed(cfg.seed, "probe", replica.name, attempt)
            else:
                seed = derive_seed(
                    cfg.seed, "probe", replica.name, attempt, vector
                )
            probe_injector = FaultInjector(
                plan, seed=seed, device=replica.device_id,
            )
            card.accelerator.attach_faults(probe_injector)
            try:
                card.launch(
                    self._compiled[probe_tenant.name],
                    num_groups=probe_tenant.groups,
                )
            except HardwareFault as fault:
                ok, detail = False, f"probe faulted: {fault}"
            finally:
                card.accelerator.attach_faults(replica.injector)
            replica.probe_faults += len(probe_injector.records)
            if not ok:
                break
        if ok:
            detail = (
                f"probe launch clean (attempt {attempt})"
                if cfg.screen_vectors == 1
                else f"{cfg.screen_vectors} probe vectors clean "
                     f"(attempt {attempt})"
            )
        p_vector = plan.odds()[2]
        if ok and self._sdc is not None and p_vector > 0.0:
            # Statistical corruption screen over the same vectors: any
            # silently-wrong golden output fails the probe (the digest
            # comparison is exact) and counts as a screen detection.
            rng = derive_rng(cfg.seed, "probe-screen", replica.name, attempt)
            for vector in range(cfg.screen_vectors):
                if rng.random() < p_vector:
                    ok = False
                    detail = (
                        f"probe screen caught silent corruption "
                        f"(vector {vector}, attempt {attempt})"
                    )
                    self._sdc.note_probe_screen_detection(replica.index)
                    break
        replica.repair_attempts += 1
        if ok:
            events.append(LifecycleEvent(due, replica.name, "repaired", detail))
            under_strength = self._router.active_count() < cfg.replicas
            replica.status = (
                ReplicaStatus.ACTIVE if under_strength else ReplicaStatus.STANDBY
            )
            replica.consecutive_fatals = 0
            replica.repair_due_ns = None
            replica.free_at = max(replica.free_at, due)
            self._router.update(replica)
            events.append(
                LifecycleEvent(
                    due, replica.name, "reintegrated",
                    f"rejoined as {replica.status.value}",
                )
            )
            if self._sdc is not None:
                # A clean (multi-vector, corruption-screened) probe is
                # the strongest evidence the board computes honestly
                # again: stop avoiding it in routing.
                self._sdc.clear(replica.index)
                self._router.suspected = self._sdc.suspected_frozen()
            return
        events.append(
            LifecycleEvent(due, replica.name, "repair_failed", detail)
        )
        if replica.repair_attempts >= MAX_REPAIR_ATTEMPTS:
            replica.status = ReplicaStatus.RETIRED
            replica.repair_due_ns = None
            events.append(
                LifecycleEvent(
                    due, replica.name, "retired",
                    f"{replica.repair_attempts} failed repair probes",
                )
            )
        else:
            replica.repair_due_ns = due + cfg.repair_ms * 1e6
        self._router.update(replica)
        if self._sdc is not None:
            self._apply_sdc_actions(due, events, counters)

    # -- reporting -----------------------------------------------------------

    def _report(
        self,
        stats: dict[str, FleetTenantStats],
        events: list[LifecycleEvent],
        counters: "_RunCounters",
        horizon: float,
    ) -> FleetReport:
        # Lifecycle counts are folds over the event log: every transition
        # is recorded as exactly one event of its kind.
        tally = Counter((event.device, event.kind) for event in events)
        kinds = Counter(event.kind for event in events)
        devices = [
            DeviceReport(
                name=replica.name,
                device_id=replica.device_id,
                final_status=replica.status.value,
                served=replica.served,
                fatal_outcomes=replica.fatal_outcomes,
                quarantines=tally[replica.name, "quarantined"],
                repair_attempts=tally[replica.name, "repaired"]
                + tally[replica.name, "repair_failed"],
                reintegrations=tally[replica.name, "reintegrated"],
                injected_faults=len(replica.injector.records)
                + replica.probe_faults,
            )
            for replica in self._replicas
        ]
        power = None
        if self._governor is not None:
            if self._autoscaler is not None:
                self._governor.power_blocked_scaleups = (
                    self._autoscaler.power_blocked_ups
                )
            power = self._governor.build_report(
                sum(entry.served for entry in stats.values())
            )
        sdc = None
        if self._sdc is not None:
            sdc = self._sdc.build_section()
        return FleetReport(
            seed=self.config.seed,
            replicas=self.config.replicas,
            hot_spares=self.config.hot_spares,
            tenants=stats,
            devices=devices,
            events=events,
            failovers=counters.failovers,
            hedged_requests=sum(entry.hedged for entry in stats.values()),
            quarantines=kinds["quarantined"],
            repairs=kinds["repaired"],
            repair_failures=kinds["repair_failed"],
            reintegrations=kinds["reintegrated"],
            promotions=kinds["promoted"],
            retirements=kinds["retired"],
            min_healthy=counters.min_healthy,
            final_healthy=self._router.active_count(),
            horizon_ns=horizon,
            autoscale_ups=kinds["scaled-up"],
            autoscale_downs=kinds["scaled-down"],
            autoscale_reversals=(
                self._autoscaler.reversals()
                if self._autoscaler is not None
                else 0
            ),
            max_brownout_level=(
                self._admission_ctl.max_level_seen
                if self._admission_ctl is not None
                else 0
            ),
            peak_backpressure=(
                self._admission_ctl.peak_backpressure
                if self._admission_ctl is not None
                else 0.0
            ),
            power=power,
            sdc=sdc,
        )

    def _export_obs(self, report: FleetReport) -> None:
        """Write the :func:`metric_samples` rows into the attached registry.

        A gauge is set; a counter is registered and incremented only when
        its value is non-zero.
        """
        metrics = self.obs.metrics
        admission = self._admission_ctl
        for kind, name, help_text, unit, labels, value in metric_samples(
            report, admission is not None, self._autoscaler is not None
        ):
            instrument = getattr(metrics, kind)(name, help_text, unit)
            if labels is None:
                continue
            if kind == "gauge":
                instrument.set(value, **labels)
            elif value:
                instrument.inc(value, **labels)
        if admission is not None:
            # The controller's end-of-run level is not a report field, so
            # it is the one gauge exported outside metric_samples.
            metrics.gauge(
                "serving_brownout_level", "degradation level at run end"
            ).set(admission.brownout_level)


def metric_samples(report: FleetReport, admission: bool, autoscaler: bool):
    """Every series a fleet run exports, read off ``report``.

    Yields ``(kind, name, help, unit, labels, value)`` rows: the one
    mapping from :class:`FleetReport` fields to the fleet, admission/
    autoscaler, power-governor and SDC tables of docs/observability.md.
    The exporter writes these rows, the chaos ``obs-consistency``
    invariant reads them back from the registry, and ``repro profile
    --fleet`` prints the unlabelled fleet rows. ``admission`` and
    ``autoscaler`` say whether the run had those controllers attached.
    A row whose ``labels`` is ``None`` only registers its instrument: a
    per-class family can have no series yet (no class saw traffic).
    """
    tenants = sorted(report.tenants.items())
    yield ("gauge", "fleet_replicas",
           "configured replicas (active target + spares)", "", {},
           report.replicas + report.hot_spares)
    yield ("gauge", "fleet_healthy_replicas",
           "active replicas at end of run", "", {}, report.final_healthy)
    yield ("gauge", "fleet_min_healthy_replicas",
           "lowest active count seen", "", {}, report.min_healthy)
    for name, help_text, value in (
        ("fleet_failovers_total",
         "request re-dispatches after a replica fatal", report.failovers),
        ("fleet_hedged_requests_total",
         "requests that needed >= 1 hedged retry", report.hedged_requests),
        ("fleet_quarantines_total",
         "replica quarantine transitions", report.quarantines),
        ("fleet_repairs_total",
         "repair probes that came back clean", report.repairs),
        ("fleet_repair_failures_total",
         "repair probes that faulted", report.repair_failures),
        ("fleet_reintegrations_total",
         "repaired replicas rejoining the pool", report.reintegrations),
        ("fleet_promotions_total",
         "hot spares promoted to active", report.promotions),
        ("fleet_retirements_total",
         "replicas retired after failed repairs", report.retirements),
    ):
        yield "counter", name, help_text, "", {}, value
    for tenant, stats in tenants:
        for status in ("served", "failed", "shed"):
            yield ("counter", "fleet_requests_total",
                   "fleet requests by tenant and status", "",
                   {"tenant": tenant, "status": status},
                   getattr(stats, status))
        yield ("gauge", "fleet_availability", "served / offered per tenant",
               "", {"tenant": tenant}, stats.availability)
    if admission:
        shed = ("counter", "serving_shed_total",
                "requests shed by admission, by reason", "")
        p99 = ("gauge", "serving_class_p99_ms", "per-SLO-class p99 latency",
               "ms")
        availability = ("gauge", "serving_class_availability",
                        "served / offered per SLO class", "")
        for family in (shed, p99, availability):
            yield *family, None, None
        for tenant, stats in tenants:
            for slo_class, entry in sorted(stats.by_class.items()):
                labels = {"tenant": tenant, "slo_class": slo_class}
                for reason, count in sorted(entry.shed_reasons.items()):
                    yield *shed, {**labels, "reason": reason}, count
                yield *p99, labels, entry.p99_ms
                yield *availability, labels, entry.availability
        yield ("gauge", "serving_backpressure_peak",
               "worst queue fullness seen", "", {}, report.peak_backpressure)
    if autoscaler:
        yield ("gauge", "autoscaler_replicas", "active replicas at end of run",
               "", {}, report.final_healthy)
        for direction, value in (
            ("up", report.autoscale_ups), ("down", report.autoscale_downs),
        ):
            yield ("counter", "autoscaler_scale_events_total",
                   "autoscaler actions by direction", "",
                   {"direction": direction}, value)
    power = report.power
    if power is not None:
        for name, help_text, unit, key in (
            ("fleet_power_cap_watts", "base fleet power budget", "W",
             "budget_watts"),
            ("fleet_power_draw_watts",
             "mean modelled fleet draw over the run", "W", "mean_draw_watts"),
            ("powercap_throttle_ratio",
             "mean power-throttle across active devices", "",
             "mean_throttle_ratio"),
            ("energy_per_inference_mj",
             "modelled energy per served inference", "mJ",
             "energy_per_inference_mj"),
        ):
            yield "gauge", name, help_text, unit, {}, power[key]
        for device, entry in sorted(power["devices"].items()):
            for name, help_text, unit, key in (
                ("device_power_cap_watts", "final per-device power cap", "W",
                 "final_cap_watts"),
                ("device_power_draw_watts", "mean per-device modelled draw",
                 "W", "mean_draw_watts"),
                ("device_power_throttle", "final per-device power throttle",
                 "", "final_throttle"),
            ):
                yield ("gauge", name, help_text, unit, {"device": device},
                       entry[key])
        yield ("counter", "powercap_reapportion_total",
               "governor windows that moved at least one device cap", "",
               {"policy": power["policy"]}, power["reapportions"])
        yield ("counter", "powercap_parked_device_windows_total",
               "device-windows spent parked by the budget", "", {},
               power["parked_device_windows"])
        yield ("counter", "powercap_blocked_scaleups_total",
               "autoscaler promotions the power budget vetoed", "", {},
               power["power_blocked_scaleups"])
    sdc = report.sdc
    if sdc is not None:
        yield ("counter", "sdc_injected_total",
               "silent corruption events injected at the fleet tier", "", {},
               sdc["injected"])
        for method, count in sorted(sdc["detected"].items()):
            yield ("counter", "sdc_detected_total",
                   "caught corruption events by method", "",
                   {"method": method}, count)
        for name, help_text, key in (
            ("sdc_served_total",
             "corrupted results that reached a client undetected",
             "served_corrupted"),
            ("sdc_screens_total", "golden-vector screens executed",
             "screens_run"),
            ("sdc_audits_total", "dual-execution audits executed",
             "audits_run"),
        ):
            yield "counter", name, help_text, "", {}, sdc[key]
        yield ("gauge", "sdc_detection_latency_max_ms",
               "worst injection-to-detection latency of caught events", "ms",
               {}, sdc["max_detection_latency_ms"])
        yield ("gauge", "sdc_suspected_replicas",
               "replicas under routing avoidance at run end", "", {},
               len(sdc["suspected_final"]))


@dataclass
class _RunCounters:
    """Fleet-wide tallies of one run."""

    failovers: int = 0
    min_healthy: int = 0

    def note_healthy(self, active: int) -> None:
        self.min_healthy = min(self.min_healthy, active)


def _step(entry: list) -> None:
    """Run one periodic tick entry of :meth:`FleetManager.run` and move it
    to its next due time."""
    entry[3](entry[0])
    entry[0] += entry[2]
