"""Fleet-level resilience: multi-device failover, quarantine and repair.

One :class:`~repro.serving.server.InferenceServer` survives *request*
faults inside a single card (retries, admission control, per-group circuit
breaking). At cloud scale the unit of failure is the whole device — the
paper positions the i20 as a datacenter inference part, and fleet behavior
(Jouppi et al.'s observation for TPU pods) dominates serving reliability.
This module adds that layer:

- :class:`FleetManager` owns N+M simulated :class:`~repro.runtime.Device`
  replicas (N active, M hot spares), opened through ``Device.open`` with
  stable per-replica ids and compiled through the shared
  :data:`~repro.caching.COMPILE_CACHE` — a fleet compiles each tenant
  model **once**;
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

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ReproRuntimeError
from repro.faults.errors import HardwareFault
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.models.zoo import build
from repro.runtime.runtime import Device
from repro.seeding import derive_rng, derive_seed
from repro.serving.routing import (
    Backlog,
    PowerAwareRouter,
    ReplicaStatus,
    make_router,
    resolve_routing,
)
from repro.serving.server import (
    ClassBook,
    RasConfig,
    SloClassStats,
    TenantConfig,
    batch_service_time_ns,
    measure_service_time_ns,
    tail_percentiles,
)
from repro.serving.workload import Request

__all__ = [
    "DeviceReport",
    "FleetConfig",
    "FleetManager",
    "FleetReport",
    "FleetTenantStats",
    "LifecycleEvent",
    "ReplicaStatus",
]


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
    max_repair_attempts: int = 4
    """Failed probes before a quarantined replica is retired."""
    max_hedges: int = 2
    """Re-dispatches of one request after fatal outcomes before it fails."""
    validate_on_open: bool = True
    """Run one real launch per replica at bring-up to prove the board."""
    screen_vectors: int = 1
    """Real launches per repair probe. The historical single-launch probe
    (``1``, the default — byte-identical) can pass a board that corrupts
    only some operand patterns; multi-vector probes launch ``n`` seeded
    vectors and require all of them clean before reintegration."""

    def __post_init__(self) -> None:
        def reject(message: str) -> None:
            raise ReproRuntimeError(f"FleetConfig: {message}")

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
        if self.max_repair_attempts < 1:
            reject(
                f"max_repair_attempts must be >= 1, "
                f"got {self.max_repair_attempts}"
            )
        if self.max_hedges < 0:
            reject(f"max_hedges must be >= 0, got {self.max_hedges}")
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
    ``scaled-up``/``scaled-down`` (the last two autoscaler-driven)."""
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "time_ns": self.time_ns, "device": self.device,
            "kind": self.kind, "detail": self.detail,
        }


@dataclass
class FleetTenantStats:
    """Per-tenant request accounting over one fleet run."""

    tenant: str
    offered: int = 0
    served: int = 0
    failed: int = 0
    shed: int = 0
    """Every dropped-before-service request (admission + no capacity)."""
    shed_no_capacity: int = 0
    """Subset of ``shed`` that arrived while zero replicas were active."""
    hedged: int = 0
    """Served-or-failed requests that needed >= 1 re-dispatch."""
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    """Shed counts by admission reason (``queue-full``/``deadline``/
    ``brownout``/``no-capacity``); empty without an admission policy."""
    by_class: dict[str, SloClassStats] = field(default_factory=dict)
    """Per-SLO-class breakdown (populated when admission is attached)."""

    @property
    def availability(self) -> float:
        """Served / offered over the whole run (1.0 on zero offered)."""
        if self.offered == 0:
            return 1.0
        return self.served / self.offered

    @property
    def availability_while_healthy(self) -> float:
        """Served / offered among requests arriving with >= 1 active
        replica — the floor the chaos invariants hold the fleet to."""
        eligible = self.offered - self.shed_no_capacity
        if eligible == 0:
            return 1.0
        return self.served / eligible

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
    device: Device
    injector: FaultInjector
    status: ReplicaStatus
    initial_status: ReplicaStatus
    compiled: dict[str, object] = field(default_factory=dict)
    free_at: float = 0.0
    consecutive_fatals: int = 0
    served: int = 0
    fatal_outcomes: int = 0
    quarantines: int = 0
    repair_attempts_total: int = 0
    reintegrations: int = 0
    probe_faults: int = 0
    repair_due_ns: float | None = None
    repair_attempts: int = 0
    power_dilation: float = 1.0
    """Service-time stretch the fleet power governor's cap imposes
    (1.0 = uncapped; only read when a governor is attached)."""


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
        routing: str | None = None,
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
        # The fleet power governor (PowerCapConfig) caps the rack budget
        # and dilates per-replica service under cap. Optional: without it
        # no power state exists and every path below is bit-identical to
        # an ungoverned build.
        self._governor = None
        if powercap is not None:
            from repro.serving.powercap import FleetPowerGovernor

            self._governor = FleetPowerGovernor(powercap)
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
                    tenant.model, tenant.groups
                )
        # Replica selection: "heap" (the O(log N) fast path, default) or
        # "reference" (the pinned O(N) scans) — explicit arg wins over the
        # REPRO_FLEET_ROUTING environment override. Both produce
        # byte-identical reports (tests/serving/test_routing.py).
        self.routing = resolve_routing(routing)
        self._router = make_router(self.routing)
        if self._governor is not None:
            self._router = PowerAwareRouter(self._router)
        if self.sdc_config is not None:
            from repro.serving.sdc import SdcAwareRouter

            # Outermost wrapper: corruption suspicion is a soft
            # avoidance applied after the governor's hard exclusions.
            self._router = SdcAwareRouter(self._router)
        self._service_memo: dict[tuple[str, int], float] = {}
        self._group_next: list[int] = []
        self._bringup_events: list[LifecycleEvent] = []
        self._replicas = self._open_fleet(tenants)

    # -- bring-up ------------------------------------------------------------

    def _open_fleet(self, tenants: list[TenantConfig]) -> list[_Replica]:
        """Open N active + M standby devices, compile every tenant once."""
        cfg = self.config
        replicas: list[_Replica] = []
        # One lowering per tenant model for the whole fleet: replicas are
        # the same chip, so COMPILE_CACHE would hand every later replica
        # the identical CompiledModel anyway — compiling through the first
        # device and sharing the object skips the per-replica cache-key
        # hashing that dominated bring-up at thousands of devices.
        built = {tenant.name: build(tenant.model) for tenant in tenants}
        compiled_shared: dict[str, object] = {}
        for index in range(cfg.replicas + cfg.hot_spares):
            name = f"r{index}"
            device_id = f"{cfg.device}-{name}"
            device = Device.open(cfg.device, obs=self.obs, device_id=device_id)
            injector = FaultInjector(
                self.schedule.base,
                seed=derive_seed(cfg.seed, "injector", name),
                device=device_id,
            )
            device.accelerator.attach_faults(injector)
            role = (
                ReplicaStatus.ACTIVE
                if index < cfg.replicas
                else ReplicaStatus.STANDBY
            )
            replica = _Replica(
                index=index, name=name, device=device, injector=injector,
                status=role, initial_status=role,
            )
            for tenant in tenants:
                compiled = compiled_shared.get(tenant.name)
                if compiled is None:
                    compiled = device.compile(built[tenant.name], batch=1)
                    compiled_shared[tenant.name] = compiled
                replica.compiled[tenant.name] = compiled
            self._bringup_events.append(
                LifecycleEvent(0.0, name, "opened", f"{device_id} as {role.value}")
            )
            if cfg.validate_on_open:
                self._validate(replica, tenants[0])
            replicas.append(replica)
        return replicas

    def _validate(self, replica: _Replica, tenant: TenantConfig) -> None:
        """One real launch proves the board before it joins the pool."""
        try:
            replica.device.launch(
                replica.compiled[tenant.name], num_groups=tenant.groups
            )
            detail = f"launch ok ({tenant.model}x{tenant.groups})"
        except HardwareFault as fault:
            detail = f"launch faulted: {fault}"
        self._bringup_events.append(
            LifecycleEvent(0.0, replica.name, "validated", detail)
        )

    # -- pool views ----------------------------------------------------------

    def _active(self) -> list[_Replica]:
        return [
            replica for replica in self._replicas
            if replica.status is ReplicaStatus.ACTIVE
        ]

    def _standby(self) -> _Replica | None:
        for replica in self._replicas:
            if replica.status is ReplicaStatus.STANDBY:
                return replica
        return None

    # -- the run -------------------------------------------------------------

    def run(self, trace: list[Request]) -> FleetReport:
        """Replay a request trace over the fleet; returns the full report.

        Deterministic: the same trace, schedule, configs and seed always
        produce an identical report (every RNG stream is re-derived from
        the fleet seed on entry, and fleet state is reset to bring-up
        roles — re-running the same manager reproduces the same report).
        """
        self._reset()
        cfg = self.config
        router = self._router
        router.rebuild(self._replicas)
        governor = self._governor
        gov_next: float | None = None
        if governor is not None:
            governor.reset(self._replicas)
            self._apply_power_signals()
            gov_next = governor.window_ns
        self._sdc = None
        screen_next: float | None = None
        screen_interval: float = 0.0
        if self.sdc_config is not None:
            from repro.serving.sdc import SdcTracker

            self._sdc = SdcTracker(
                self.sdc_config, cfg.seed, self.schedule,
                [replica.name for replica in self._replicas],
                self.ras.transfers_per_request,
            )
            if self.sdc_config.screen_interval_ms is not None:
                screen_interval = self.sdc_config.screen_interval_ms * 1e6
                screen_next = screen_interval
        rngs = {
            replica.name: derive_rng(cfg.seed, "serve", replica.name)
            for replica in self._replicas
        }
        events: list[LifecycleEvent] = list(self._bringup_events)
        stats = {name: FleetTenantStats(tenant=name) for name in self.tenants}
        latencies: dict[str, list[float]] = {name: [] for name in self.tenants}
        # Per-class accounting exists only under an admission policy.
        books = (
            {name: ClassBook() for name in self.tenants}
            if self._admission_ctl is not None
            else None
        )
        # Bounded per-tenant / fleet-wide per-class finish times: the
        # admission layer's queue depths and backpressure read these (the
        # fleet is one shared pool). Maintained only when something reads
        # them, and pruned as depth queries move forward in time.
        backlog = Backlog(self.tenants, self.ras, self._admission_ctl)
        counters = _RunCounters()
        counters.min_healthy = router.active_count()
        horizon = 0.0
        # One vectorized pass validates the whole trace (same first error
        # the per-request checks raised) and precomputes the per-(tenant,
        # class) chain the coalescer walks instead of rescanning forward.
        self._validate_trace(trace)
        self._group_next = self._group_chains(trace)
        joined = [False] * len(trace)
        next_tick = (
            self._autoscaler.config.eval_interval_ms * 1e6
            if self._autoscaler is not None
            else None
        )
        for index, request in enumerate(trace):
            if joined[index]:
                continue  # coalesced into an earlier batch, accounted there
            arrival = request.arrival_ns
            # Governor windows, autoscaler ticks and SDC screen ticks
            # interleave in time order (governor first on ties: caps land
            # before the scale decision reads them; screens last). With
            # no governor and no screener this reduces exactly to the
            # historical autoscaler-only stepping.
            while True:
                due_gov = gov_next is not None and gov_next <= arrival
                due_scale = next_tick is not None and next_tick <= arrival
                due_screen = screen_next is not None and screen_next <= arrival
                if (
                    due_gov
                    and (not due_scale or gov_next <= next_tick)
                    and (not due_screen or gov_next <= screen_next)
                ):
                    self._powercap_tick(gov_next)
                    gov_next += governor.window_ns
                elif due_scale and (
                    not due_screen or next_tick <= screen_next
                ):
                    self._autoscale_tick(next_tick, backlog, events, counters)
                    next_tick += (
                        self._autoscaler.config.eval_interval_ms * 1e6
                    )
                elif due_screen:
                    self._screen_tick(screen_next, events, counters)
                    screen_next += screen_interval
                else:
                    break
            router.advance(arrival)
            self._advance(arrival, events, counters)
            tenant_stats = stats[request.tenant]
            book = books[request.tenant] if books is not None else None
            tenant_stats.offered += 1
            active = router.active_count()
            if active and governor is not None:
                # Parked replicas are powered off by the cap: they sit in
                # the routing pool but cannot take traffic, so a fully
                # parked fleet sheds for lack of capacity like a fully
                # quarantined one.
                parked = governor.parked_indices()
                if parked:
                    active -= sum(
                        1 for index in parked
                        if self._replicas[index].status
                        is ReplicaStatus.ACTIVE
                    )
            if not active:
                tenant_stats.shed_no_capacity += 1
                self._note_shed(tenant_stats, book, request, "no-capacity")
                continue
            shed_reason = self._admission_shed(request, backlog)
            if shed_reason is not None:
                self._note_shed(tenant_stats, book, request, shed_reason)
                continue
            members = self._coalesce(trace, index, joined)
            for member in members[1:]:
                tenant_stats.offered += 1
            finish, status, hedges = self._dispatch(
                members, rngs, events, counters
            )
            if hedges:
                tenant_stats.hedged += len(members)
                counters.hedged_requests += len(members)
            for member in members:
                final = self.ras.deadline_status(status, member, finish)
                latency_ms = (finish - member.arrival_ns) / 1e6
                if final == "ok":
                    tenant_stats.served += 1
                    latencies[member.tenant].append(latency_ms)
                    if self._autoscaler is not None:
                        self._autoscaler.observe(member.slo_class, latency_ms)
                else:
                    tenant_stats.failed += 1
                if book is not None:
                    book.settle(
                        member.slo_class, latency_ms if final == "ok" else None
                    )
                backlog.push(member, finish)
            horizon = max(horizon, finish)
        if screen_next is not None:
            # Let the screener finish sweeping the served interval, so
            # corruption served near the end of the trace still gets its
            # conviction (and its detection-latency sample) on record.
            while screen_next <= horizon:
                self._screen_tick(screen_next, events, counters)
                screen_next += screen_interval
        self._drain_repairs(events, counters)
        if governor is not None:
            # Close governor windows until every occupied interval is
            # accounted, so the energy integral covers the whole run.
            while gov_next - governor.window_ns < horizon:
                self._powercap_tick(gov_next)
                gov_next += governor.window_ns
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

    def _validate_trace(self, trace: list[Request]) -> None:
        """Whole-trace validation in one vectorized pass.

        Raises exactly what the historical per-request checks raised, at
        the same first offending request: the arrival-order check wins
        over the unknown-tenant check at equal index (it ran first).
        """
        n = len(trace)
        if not n:
            return
        arrivals = np.fromiter(
            (request.arrival_ns for request in trace),
            dtype=np.float64, count=n,
        )
        previous = np.empty(n)
        previous[0] = 0.0
        previous[1:] = arrivals[:-1]
        drops = np.flatnonzero(arrivals < previous)
        bad_arrival = int(drops[0]) if drops.size else n
        known = self.tenants
        bad_tenant = n
        for index in range(min(bad_arrival + 1, n)):
            if trace[index].tenant not in known:
                bad_tenant = index
                break
        if bad_arrival >= n and bad_tenant >= n:
            return
        if bad_arrival <= bad_tenant:
            request = trace[bad_arrival]
            raise ReproRuntimeError(
                f"trace arrivals must be non-decreasing: request "
                f"{request.request_id} at {request.arrival_ns} after "
                f"{float(previous[bad_arrival])}"
            )
        request = trace[bad_tenant]
        raise ReproRuntimeError(
            f"request {request.request_id}: unknown tenant "
            f"{request.tenant!r}"
        )

    @staticmethod
    def _group_chains(trace: list[Request]) -> list[int]:
        """``chain[i]`` = index of the next same-(tenant, class) request
        after ``i`` (-1 at the tail) — the coalescer walks this instead
        of rescanning every following arrival."""
        chain = [-1] * len(trace)
        last: dict[tuple[str, str], int] = {}
        for index in range(len(trace) - 1, -1, -1):
            request = trace[index]
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
        already paid for, not queue depth. A zero window (the default)
        returns ``[head]`` and reproduces the unbatched fleet exactly.
        """
        head = trace[index]
        tenant = self.tenants[head.tenant]
        members = [head]
        window_ns = tenant.coalesce_window_ms * 1e6
        if window_ns <= 0 or tenant.max_batch <= 1:
            return members
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
        self._router.set_power_sets(
            governor.avoid_indices(), governor.parked_indices()
        )

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
            backpressure = self._admission_ctl.backpressure(
                backlog.class_depths(now)
            )
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
            counters.autoscale_ups += 1
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
            counters.autoscale_downs += 1
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
            replica.quarantines = 0
            replica.repair_attempts_total = 0
            replica.reintegrations = 0
            replica.probe_faults = 0
            replica.repair_due_ns = None
            replica.repair_attempts = 0
            replica.power_dilation = 1.0
        if self._admission_ctl is not None:
            self._admission_ctl.reset()
        if self._autoscaler is not None:
            self._autoscaler.reset()

    # -- routing + serving ---------------------------------------------------

    def _admission_shed(self, request: Request, backlog: Backlog) -> str | None:
        """Admission control at the fleet door; returns a shed reason or
        ``None`` to admit.

        With an :class:`~repro.serving.admission.AdmissionPolicy`
        attached, the request's SLO class gets the full treatment —
        bounded per-class queue, deadline-aware early shedding, brownout
        — driven by fleet-wide per-class depths, with the power
        governor's throttle pressure as a brownout floor. Without one,
        the legacy flat per-tenant ``ras.queue_depth_limit`` applies.
        """
        now = request.arrival_ns
        if self._admission_ctl is not None:
            decision = self._admission_ctl.admit(
                request.slo_class,
                backlog.class_depths(now),
                self._router.earliest_start(now) - now,
                self.service_times_ns[request.tenant],
                pressure_floor=(
                    self._governor.power_pressure()
                    if self._governor is not None
                    else 0.0
                ),
            )
            return None if decision.admitted else decision.reason
        if self.ras.queue_full(backlog.tenants[request.tenant], now):
            return "queue-full"
        return None

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
        up to ``max_hedges`` times before the batch is declared failed.
        ``members`` is usually one request; continuous batching passes
        the coalesced group, which lives and dies together.
        """
        head = members[0]
        dispatch_ns = head.arrival_ns
        hedges = 0
        excluded: set[int] = set()
        finish = dispatch_ns
        router = self._router
        last_joiner_ns = members[-1].arrival_ns
        while True:
            replica = router.pick(dispatch_ns, excluded)
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
            replica.free_at = finish
            if self._governor is not None:
                # Fatal attempts burned power too: every occupied
                # interval feeds the governor's draw accounting.
                self._governor.note_busy(replica.index, start, finish)
            router.update(replica)
            if self._sdc is not None:
                # ABFT detections inside _attempt queued containment
                # directives; apply them at the attempt's finish time.
                self._apply_sdc_actions(finish, events, counters)
            if outcome == "ok":
                if self._sdc is not None:
                    self._sdc_serve(
                        replica, head.tenant, len(members), corrupted,
                        finish, events, counters,
                    )
                replica.served += len(members)
                replica.consecutive_fatals = 0
                return finish, "ok", hedges
            replica.fatal_outcomes += 1
            replica.consecutive_fatals += 1
            self._maybe_quarantine(replica, finish, events, counters)
            excluded.add(replica.index)
            if hedges >= self.config.max_hedges:
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
        if self._governor is not None and replica.power_dilation != 1.0:
            # The power cap's performance echo: a throttled device serves
            # the same work, stretched by the governor's dilation.
            service = service * replica.power_dilation
        tracker = self._sdc
        if tracker is not None:
            # Result checking costs compute: the checked path's measured
            # slowdown (serving.sdc_overhead bench) stretches service.
            service = service * tracker.service_multiplier()
        events_per_attempt = self.ras.transfers_per_request * batch
        now = start
        retries = 0
        while True:
            dispatch_ns = now
            transient_rate, fatal_rate = self.schedule.rates_at(
                now, replica.index
            )
            p_fatal = 1.0 - (1.0 - fatal_rate) ** events_per_attempt
            p_transient = 1.0 - (1.0 - transient_rate) ** events_per_attempt
            now += service
            if p_fatal > 0.0 and rng.random() < p_fatal:
                return now, "fatal", retries, False
            if p_transient > 0.0 and rng.random() < p_transient:
                retries += 1
                if retries > self.ras.max_retries:
                    return now, "fatal", retries, False
                now += self.ras.backoff_ns(retries)
                continue
            corrupted = False
            if tracker is not None:
                corrupted = tracker.attempt_corrupted(
                    replica.name, replica.index, dispatch_ns,
                    events_per_attempt,
                )
                if corrupted and tracker.abft_detects(replica.name):
                    # Caught before the result leaves the replica: the
                    # wrong answer is discarded and the batch re-executes.
                    tracker.note_detection(replica.index, "abft")
                    retries += 1
                    if retries > self.ras.max_retries:
                        return now, "fatal", retries, False
                    now += self.ras.backoff_ns(retries)
                    continue
            return now, "ok", retries, corrupted

    # -- lifecycle -----------------------------------------------------------

    def _maybe_quarantine(
        self,
        replica: _Replica,
        now: float,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> None:
        if (
            replica.status is not ReplicaStatus.ACTIVE
            or replica.consecutive_fatals < self.config.quarantine_threshold
        ):
            return
        self._quarantine(
            replica, now,
            f"{replica.consecutive_fatals} consecutive fatal outcomes",
            events, counters,
        )

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
        replica.quarantines += 1
        replica.repair_due_ns = now + self.config.repair_ms * 1e6
        replica.repair_attempts = 0
        self._router.update(replica)
        counters.quarantines += 1
        events.append(
            LifecycleEvent(now, replica.name, "quarantined", detail)
        )
        self._promote_spare(replica.name, now, events, counters)
        counters.note_healthy(self._router.active_count())

    def _promote_spare(
        self,
        replaced: str,
        now: float,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> None:
        spare = self._router.standby()
        if spare is None:
            return
        spare.status = ReplicaStatus.ACTIVE
        spare.free_at = max(spare.free_at, now)
        self._router.update(spare)
        counters.promotions += 1
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
            secondary = self._router.pick(finish, {replica.index})
            if secondary is not None:
                tracker.audits_run += 1
                service = self._service_memo.get((tenant_name, batch))
                start = max(finish, secondary.free_at)
                audit_finish = start + service
                secondary.free_at = audit_finish
                if self._governor is not None:
                    self._governor.note_busy(
                        secondary.index, start, audit_finish
                    )
                self._router.update(secondary)
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
        for replica in self._replicas:
            if replica.status not in (
                ReplicaStatus.ACTIVE, ReplicaStatus.STANDBY
            ):
                continue
            if replica.free_at > now:
                continue
            detections = tracker.screen_replica(replica.name, replica.index, now)
            if cost_ns > 0.0:
                replica.free_at = now + cost_ns
                self._router.update(replica)
                if self._governor is not None:
                    self._governor.note_busy(replica.index, now, replica.free_at)
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
                counters.retirements += 1
                tracker.sdc_retirements += 1
                events.append(
                    LifecycleEvent(
                        now, replica.name, "retired",
                        "repeat silent-corruption offender",
                    )
                )
                if was_active:
                    self._promote_spare(replica.name, now, events, counters)
                counters.note_healthy(self._router.active_count())
            elif action == "quarantine":
                if replica.status is ReplicaStatus.ACTIVE:
                    tracker.sdc_quarantines += 1
                    self._quarantine(
                        replica, now, "silent corruption detected",
                        events, counters,
                    )
        self._router.set_suspected(tracker.suspected_frozen())

    def _advance(
        self,
        now: float,
        events: list[LifecycleEvent],
        counters: "_RunCounters",
    ) -> None:
        """Process every repair probe due at or before ``now``."""
        router = self._router
        while True:
            replica = router.due_repair(now)
            if replica is None:
                counters.note_healthy(router.active_count())
                return
            self._probe(replica, events, counters)

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
                plan, seed=seed, device=replica.device.device_id,
            )
            replica.device.accelerator.attach_faults(probe_injector)
            try:
                replica.device.launch(
                    replica.compiled[probe_tenant.name],
                    num_groups=probe_tenant.groups,
                )
            except HardwareFault as fault:
                ok, detail = False, f"probe faulted: {fault}"
            finally:
                replica.device.accelerator.attach_faults(replica.injector)
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
        if ok and self._sdc is not None and plan.silent_event_rate > 0.0:
            # Statistical corruption screen over the same vectors: any
            # silently-wrong golden output fails the probe (the digest
            # comparison is exact) and counts as a screen detection.
            rng = derive_rng(cfg.seed, "probe-screen", replica.name, attempt)
            p_vector = 1.0 - (
                1.0 - plan.silent_event_rate
            ) ** self.ras.transfers_per_request
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
        replica.repair_attempts_total += 1
        if ok:
            counters.repairs += 1
            events.append(LifecycleEvent(due, replica.name, "repaired", detail))
            under_strength = self._router.active_count() < cfg.replicas
            replica.status = (
                ReplicaStatus.ACTIVE if under_strength else ReplicaStatus.STANDBY
            )
            replica.consecutive_fatals = 0
            replica.repair_due_ns = None
            replica.free_at = max(replica.free_at, due)
            replica.reintegrations += 1
            self._router.update(replica)
            counters.reintegrations += 1
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
                self._router.set_suspected(self._sdc.suspected_frozen())
            return
        counters.repair_failures += 1
        events.append(
            LifecycleEvent(due, replica.name, "repair_failed", detail)
        )
        if replica.repair_attempts >= cfg.max_repair_attempts:
            replica.status = ReplicaStatus.RETIRED
            replica.repair_due_ns = None
            counters.retirements += 1
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

    def _drain_repairs(
        self, events: list[LifecycleEvent], counters: "_RunCounters"
    ) -> None:
        """After the trace ends, let pending repairs run to completion so
        the report shows each quarantine's final disposition."""
        router = self._router
        while True:
            replica = router.due_repair(None)
            if replica is None:
                break
            self._probe(replica, events, counters)
        counters.note_healthy(router.active_count())

    # -- reporting -----------------------------------------------------------

    def _report(
        self,
        stats: dict[str, FleetTenantStats],
        events: list[LifecycleEvent],
        counters: "_RunCounters",
        horizon: float,
    ) -> FleetReport:
        devices = [
            DeviceReport(
                name=replica.name,
                device_id=replica.device.device_id,
                final_status=replica.status.value,
                served=replica.served,
                fatal_outcomes=replica.fatal_outcomes,
                quarantines=replica.quarantines,
                repair_attempts=replica.repair_attempts_total,
                reintegrations=replica.reintegrations,
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
            hedged_requests=counters.hedged_requests,
            quarantines=counters.quarantines,
            repairs=counters.repairs,
            repair_failures=counters.repair_failures,
            reintegrations=counters.reintegrations,
            promotions=counters.promotions,
            retirements=counters.retirements,
            min_healthy=counters.min_healthy,
            final_healthy=self._router.active_count(),
            horizon_ns=horizon,
            autoscale_ups=counters.autoscale_ups,
            autoscale_downs=counters.autoscale_downs,
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
        """Mirror the fleet report into the attached metrics registry.

        The gauge/counter catalogue is documented in docs/observability.md
        (fleet rows); ``repro profile --fleet`` prints the same numbers.
        """
        metrics = self.obs.metrics
        metrics.gauge(
            "fleet_replicas", "configured replicas (active target + spares)"
        ).set(report.replicas + report.hot_spares)
        metrics.gauge(
            "fleet_healthy_replicas", "active replicas at end of run"
        ).set(report.final_healthy)
        metrics.gauge(
            "fleet_min_healthy_replicas", "lowest active count seen"
        ).set(report.min_healthy)
        counter_values = {
            "fleet_failovers_total":
                ("request re-dispatches after a replica fatal",
                 report.failovers),
            "fleet_hedged_requests_total":
                ("requests that needed >= 1 hedged retry",
                 report.hedged_requests),
            "fleet_quarantines_total":
                ("replica quarantine transitions", report.quarantines),
            "fleet_repairs_total":
                ("repair probes that came back clean", report.repairs),
            "fleet_repair_failures_total":
                ("repair probes that faulted", report.repair_failures),
            "fleet_reintegrations_total":
                ("repaired replicas rejoining the pool",
                 report.reintegrations),
            "fleet_promotions_total":
                ("hot spares promoted to active", report.promotions),
            "fleet_retirements_total":
                ("replicas retired after failed repairs",
                 report.retirements),
        }
        for name, (help_text, value) in counter_values.items():
            if value:
                metrics.counter(name, help_text).inc(value)
            else:
                metrics.counter(name, help_text)
        requests_total = metrics.counter(
            "fleet_requests_total", "fleet requests by tenant and status"
        )
        availability = metrics.gauge(
            "fleet_availability", "served / offered per tenant"
        )
        for name, stats in sorted(report.tenants.items()):
            for status, value in (
                ("served", stats.served),
                ("failed", stats.failed),
                ("shed", stats.shed),
            ):
                if value:
                    requests_total.inc(value, tenant=name, status=status)
            availability.set(stats.availability, tenant=name)
        self._export_serving_obs(report)
        if report.power is not None:
            self._export_power_obs(report)
        if report.sdc is not None:
            self._export_sdc_obs(report)

    def _export_serving_obs(self, report: FleetReport) -> None:
        """Admission/autoscaler metric rows (docs/observability.md)."""
        metrics = self.obs.metrics
        if self._admission_ctl is not None:
            shed_total = metrics.counter(
                "serving_shed_total",
                "requests shed by admission, by reason",
            )
            class_p99 = metrics.gauge(
                "serving_class_p99_ms", "per-SLO-class p99 latency",
                unit="ms",
            )
            class_availability = metrics.gauge(
                "serving_class_availability",
                "served / offered per SLO class",
            )
            for name, stats in sorted(report.tenants.items()):
                for slo_class, entry in sorted(stats.by_class.items()):
                    for reason, count in sorted(entry.shed_reasons.items()):
                        shed_total.inc(
                            count, tenant=name, slo_class=slo_class,
                            reason=reason,
                        )
                    class_p99.set(
                        entry.p99_ms, tenant=name, slo_class=slo_class
                    )
                    class_availability.set(
                        entry.availability, tenant=name, slo_class=slo_class
                    )
            metrics.gauge(
                "serving_brownout_level", "degradation level at run end"
            ).set(self._admission_ctl.brownout_level)
            metrics.gauge(
                "serving_backpressure_peak", "worst queue fullness seen"
            ).set(report.peak_backpressure)
        if self._autoscaler is not None:
            metrics.gauge(
                "autoscaler_replicas", "active replicas at end of run"
            ).set(report.final_healthy)
            scale_events = metrics.counter(
                "autoscaler_scale_events_total",
                "autoscaler actions by direction",
            )
            if report.autoscale_ups:
                scale_events.inc(report.autoscale_ups, direction="up")
            if report.autoscale_downs:
                scale_events.inc(report.autoscale_downs, direction="down")

    def _export_power_obs(self, report: FleetReport) -> None:
        """Fleet power governor gauge/counter rows (docs/power.md)."""
        metrics = self.obs.metrics
        power = report.power
        metrics.gauge(
            "fleet_power_cap_watts", "base fleet power budget", unit="W"
        ).set(power["budget_watts"])
        metrics.gauge(
            "fleet_power_draw_watts",
            "mean modelled fleet draw over the run", unit="W",
        ).set(power["mean_draw_watts"])
        metrics.gauge(
            "powercap_throttle_ratio",
            "mean power-throttle across active devices",
        ).set(power["mean_throttle_ratio"])
        metrics.gauge(
            "energy_per_inference_mj",
            "modelled energy per served inference", unit="mJ",
        ).set(power["energy_per_inference_mj"])
        device_cap = metrics.gauge(
            "device_power_cap_watts",
            "final per-device power cap", unit="W",
        )
        device_draw = metrics.gauge(
            "device_power_draw_watts",
            "mean per-device modelled draw", unit="W",
        )
        device_throttle = metrics.gauge(
            "device_power_throttle",
            "final per-device power throttle",
        )
        for name, entry in sorted(power["devices"].items()):
            device_cap.set(entry["final_cap_watts"], device=name)
            device_draw.set(entry["mean_draw_watts"], device=name)
            device_throttle.set(entry["final_throttle"], device=name)
        reapportions = metrics.counter(
            "powercap_reapportion_total",
            "governor windows that moved at least one device cap",
        )
        if power["reapportions"]:
            reapportions.inc(power["reapportions"], policy=power["policy"])
        parked = metrics.counter(
            "powercap_parked_device_windows_total",
            "device-windows spent parked by the budget",
        )
        if power["parked_device_windows"]:
            parked.inc(power["parked_device_windows"])
        blocked = metrics.counter(
            "powercap_blocked_scaleups_total",
            "autoscaler promotions the power budget vetoed",
        )
        if power["power_blocked_scaleups"]:
            blocked.inc(power["power_blocked_scaleups"])

    def _export_sdc_obs(self, report: FleetReport) -> None:
        """SDC defense counter/gauge rows (docs/observability.md)."""
        metrics = self.obs.metrics
        sdc = report.sdc
        injected = metrics.counter(
            "sdc_injected_total",
            "silent corruption events injected at the fleet tier",
        )
        if sdc["injected"]:
            injected.inc(sdc["injected"])
        detected = metrics.counter(
            "sdc_detected_total", "caught corruption events by method"
        )
        for method, count in sorted(sdc["detected"].items()):
            if count:
                detected.inc(count, method=method)
        served = metrics.counter(
            "sdc_served_total",
            "corrupted results that reached a client undetected",
        )
        if sdc["served_corrupted"]:
            served.inc(sdc["served_corrupted"])
        screens = metrics.counter(
            "sdc_screens_total", "golden-vector screens executed"
        )
        if sdc["screens_run"]:
            screens.inc(sdc["screens_run"])
        audits = metrics.counter(
            "sdc_audits_total", "dual-execution audits executed"
        )
        if sdc["audits_run"]:
            audits.inc(sdc["audits_run"])
        metrics.gauge(
            "sdc_detection_latency_max_ms",
            "worst injection-to-detection latency of caught events",
            unit="ms",
        ).set(sdc["max_detection_latency_ms"])
        metrics.gauge(
            "sdc_suspected_replicas",
            "replicas under routing avoidance at run end",
        ).set(len(sdc["suspected_final"]))


@dataclass
class _RunCounters:
    """Fleet-wide tallies of one run."""

    failovers: int = 0
    hedged_requests: int = 0
    quarantines: int = 0
    repairs: int = 0
    repair_failures: int = 0
    reintegrations: int = 0
    promotions: int = 0
    retirements: int = 0
    min_healthy: int = 0
    autoscale_ups: int = 0
    autoscale_downs: int = 0

    def note_healthy(self, active: int) -> None:
        self.min_healthy = min(self.min_healthy, active)
