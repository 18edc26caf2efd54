"""Chaos harness: scripted fault storms + declared invariants over the fleet.

PR 1 gave the stack RAS machinery; this module *proves* it holds. A
:class:`ChaosScenario` scripts a seeded storm campaign — transient bursts,
ramped degradation, hard device kills, correlated multi-board outages —
as a :class:`~repro.faults.schedule.FaultSchedule` over a
:class:`~repro.serving.fleet.FleetManager`, then checks every declared
invariant against the resulting :class:`~repro.serving.fleet.FleetReport`:

- **conservation** — no request is silently dropped:
  ``served + failed + shed == offered`` for every tenant;
- **availability-floor** — among requests arriving while >= 1 replica was
  active, the served fraction stays above the scenario's floor;
- **monotone-time** — the fleet timeline never runs backwards: lifecycle
  events are time-ordered per device and nothing outruns the horizon;
- **obs-consistency** — every series the run exported (the
  ``metric_samples`` table) agrees exactly with the report (no counter
  drift between telemetry and truth);
- **end-to-end-correctness** — under a declared SDC defense, every
  injected silent corruption is either detected or within the scenario's
  served-corruption budget, with bounded detection latency, and a
  defenses-off control rerun proves the storm actually corrupts.

Determinism is part of the contract: one root seed derives every stream
(see :mod:`repro.seeding`), so ``run_suite(seed=7)`` twice produces
byte-identical JSON reports — pinned by tests and cheap to bisect when a
scenario regresses. The ``repro chaos`` CLI runs the built-in suite
(``--quick`` for the CI smoke subset) and exits non-zero on any invariant
violation. docs/robustness.md documents the scenario format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.core.errors import ReproRuntimeError
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule, StormPhase
from repro.obs import Observability
from repro.seeding import derive_seed
from repro.serving.admission import AdmissionPolicy, SloClass
from repro.serving.autoscale import AutoscalerConfig
from repro.serving.fleet import (
    FleetConfig,
    FleetManager,
    FleetReport,
    metric_samples,
)
from repro.serving.loadgen import LoadSpec, generate_load
from repro.serving.powercap import DEVICE_IDLE_WATTS, PowerCapConfig, PowerCapPhase
from repro.serving.sdc import SdcConfig
from repro.sim.parallel import run_sharded
from repro.serving.server import RasConfig, TenantConfig, measure_service_time_ns
from repro.serving.workload import Request, TrafficPattern, generate_trace

__all__ = [
    "ChaosScenario",
    "INVARIANTS",
    "SCENARIOS",
    "ScenarioResult",
    "SuiteResult",
    "declared_invariants",
    "render_table",
    "run_scenario",
    "run_suite",
    "scenario_names",
]


# ---------------------------------------------------------------------------
# scenario definition
# ---------------------------------------------------------------------------

#: Synthetic service times scenarios default to (tenant -> ns). Keeps the
#: suite fast and byte-stable; pass ``measured=True`` to run_scenario /
#: run_suite to use memoized detailed-simulator measurements instead.
DEFAULT_SERVICE_TIMES_NS: dict[str, float] = {"a": 1.0e6, "b": 5.0e6}
#: Autoscaler-convergence bound: up/down direction flips allowed.
MAX_SCALE_REVERSALS = 2

_DEFAULT_TENANTS = (
    TenantConfig("a", "resnet50", groups=2, max_batch=1, sla_ms=50.0),
    TenantConfig("b", "unet", groups=3, max_batch=1, sla_ms=None),
)
_DEFAULT_TRAFFIC = (
    TrafficPattern("a", 240.0),
    TrafficPattern("b", 40.0),
)


@dataclass(frozen=True)
class ChaosScenario:
    """One scripted storm campaign plus the floor it must respect."""

    name: str
    description: str
    schedule: FaultSchedule
    duration_s: float = 0.5
    tenants: tuple[TenantConfig, ...] = _DEFAULT_TENANTS
    traffic: tuple[TrafficPattern, ...] = _DEFAULT_TRAFFIC
    fleet: FleetConfig = FleetConfig(replicas=2, hot_spares=1, repair_ms=60.0)
    ras: RasConfig = RasConfig(max_retries=2, queue_depth_limit=64)
    availability_floor: float = 0.95
    """Minimum served fraction among requests arriving while >= 1 replica
    was active (the availability-floor invariant)."""
    quick: bool = True
    """Included in the ``--quick`` CI smoke subset."""
    load: tuple[LoadSpec, ...] = ()
    """Open-loop loadgen specs; when non-empty they replace ``traffic``
    (the overload scenarios drive flash crowds through these)."""
    admission: AdmissionPolicy | None = None
    """SLO-class admission policy the fleet runs under (None = legacy
    flat queue-depth admission)."""
    autoscaler: AutoscalerConfig | None = None
    """Autoscaler control loop (None = static replica count)."""
    class_availability_floors: tuple[tuple[str, float], ...] = ()
    """Per-SLO-class floors on availability-while-healthy, aggregated
    across tenants — how 'interactive survives while batch sheds' is
    stated as an invariant."""
    overload_multipliers: tuple[float, ...] = ()
    """Offered-load multipliers for the shed-monotonicity sweep: the shed
    rate must be non-decreasing across these (run in order)."""
    powercap: PowerCapConfig | None = None
    """Fleet power governor attached to the run (None = no power
    capping; the report then has no ``power`` section and stays
    byte-identical to pre-governor builds)."""
    cap_multipliers: tuple[float, ...] = ()
    """Fleet-budget multipliers for the cap-monotonicity sweep, run in
    declared order (loosest first): total modelled energy must be
    non-increasing as the whole storm's budget tightens. Scenarios size
    their budgets inside the DVFS-dominated region where this holds —
    deep stall-throttling inverts it (docs/power.md)."""
    sdc: SdcConfig | None = None
    """Silent-data-corruption defense the fleet runs under (None = no
    tracker; the report then has no ``sdc`` section and stays
    byte-identical to pre-SDC builds). Scenarios that set this also get
    a defenses-off control rerun proving the storm actually corrupts."""
    max_sdc_served: int = 0
    """End-to-end-correctness ceiling: corruption events allowed to
    reach a client undetected under the declared defense."""
    sdc_detection_latency_ms: float | None = None
    """Bound on the worst injection-to-detection latency of caught
    events (None = unbounded)."""

    def __post_init__(self) -> None:
        def reject(message: str) -> None:
            raise ReproRuntimeError(f"ChaosScenario {self.name!r}: {message}")

        # Each field below reads a layer the scenario must also attach;
        # without it the field would pass vacuously or be skipped.
        if self.class_availability_floors and self.admission is None:
            reject("class_availability_floors needs an admission policy")
        if self.cap_multipliers and self.powercap is None:
            reject("cap_multipliers needs a powercap config")
        if self.max_sdc_served and self.sdc is None:
            reject("max_sdc_served needs an sdc config")
        if self.sdc_detection_latency_ms is not None and self.sdc is None:
            reject("sdc_detection_latency_ms needs an sdc config")
        overload = self.overload_multipliers
        if any(b <= a for a, b in zip(overload, overload[1:])):
            reject(f"overload_multipliers must ascend, got {overload}")
        caps = self.cap_multipliers
        if any(b >= a for a, b in zip(caps, caps[1:])):
            reject(f"cap_multipliers must descend, got {caps}")


@dataclass
class ScenarioResult:
    """One scenario's outcome: the fleet report + invariant verdicts."""

    scenario: ChaosScenario
    report: FleetReport
    violations: list[str]
    sweep: list[dict] | None = None
    """Shed-monotonicity sweep rows (one per overload multiplier), when
    the scenario declares ``overload_multipliers``."""
    cap_sweep: list[dict] | None = None
    """Cap-monotonicity sweep rows (one per cap multiplier), when the
    scenario declares ``cap_multipliers``. The key is omitted from
    ``to_dict`` otherwise so pre-governor suite JSON stays byte-stable."""
    sdc_control: dict | None = None
    """The defenses-off control rerun's ``sdc`` report section, when the
    scenario declares an :class:`SdcConfig` — same seed, same storm, no
    detection — proving the defended zero is not vacuous. The key is
    omitted from ``to_dict`` otherwise so pre-SDC suite JSON stays
    byte-stable."""

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        data = {
            "scenario": self.scenario.name,
            "passed": self.passed,
            "violations": list(self.violations),
            "availability_floor": self.scenario.availability_floor,
            "report": self.report.to_dict(),
            "sweep": self.sweep,
        }
        if self.cap_sweep is not None:
            data["cap_sweep"] = self.cap_sweep
        if self.sdc_control is not None:
            data["sdc_control"] = self.sdc_control
        return data


@dataclass
class SuiteResult:
    """A full chaos run: scenario results in declared order."""

    seed: int
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "results": [result.to_dict() for result in self.results],
        }

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for identical runs."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# the invariant catalogue
# ---------------------------------------------------------------------------

def _check_conservation(scenario, report, registry) -> list[str]:
    """No request silently dropped: served + failed + shed == offered."""
    violations = []
    for name, stats in sorted(report.tenants.items()):
        accounted = stats.served + stats.failed + stats.shed
        if accounted != stats.offered:
            violations.append(
                f"conservation: tenant {name!r} accounted {accounted} of "
                f"{stats.offered} offered requests"
            )
    return violations


def _check_availability_floor(scenario, report, registry) -> list[str]:
    """Availability among requests arriving with >= 1 active replica."""
    violations = []
    for name, stats in sorted(report.tenants.items()):
        achieved = stats.availability_while_healthy
        if achieved < scenario.availability_floor:
            violations.append(
                f"availability-floor: tenant {name!r} served "
                f"{achieved:.4f} < floor {scenario.availability_floor} "
                f"while >= 1 replica was healthy"
            )
    return violations


def _check_monotone_time(scenario, report, registry) -> list[str]:
    """The fleet timeline never runs backwards."""
    violations = []
    last_per_device: dict[str, float] = {}
    for event in report.events:
        if event.time_ns < 0:
            violations.append(
                f"monotone-time: event {event.kind!r} on {event.device} at "
                f"negative time {event.time_ns}"
            )
        previous = last_per_device.get(event.device)
        if previous is not None and event.time_ns < previous:
            violations.append(
                f"monotone-time: {event.device} event {event.kind!r} at "
                f"{event.time_ns} precedes earlier event at {previous}"
            )
        last_per_device[event.device] = event.time_ns
        if event.time_ns > report.horizon_ns:
            violations.append(
                f"monotone-time: event {event.kind!r} at {event.time_ns} "
                f"beyond horizon {report.horizon_ns}"
            )
    return violations


def _check_obs_consistency(scenario, report, registry) -> list[str]:
    """Every exported fleet series agrees exactly with the report.

    Reads back the rows the exporter wrote (:func:`metric_samples`):
    each row's instrument must be registered with its kind and hold the
    row's value, and no instrument in the table may carry a label set
    the rows do not name (drift left by an earlier run on a shared hub).
    """
    if registry is None:
        return []
    violations = []
    unread: dict[str, dict | None] = {}
    for kind, name, _help, _unit, labels, value in metric_samples(
        report, scenario.admission is not None,
        scenario.autoscaler is not None,
    ):
        if name not in unread:
            metric = registry.get(name)
            if metric is None or metric.kind != kind:
                violations.append(
                    f"obs-consistency: {name} is not a registered {kind}"
                )
                unread[name] = None
            else:
                unread[name] = {
                    _series_key(exported): actual
                    for exported, actual in metric.samples()
                }
        series = unread[name]
        if series is None or labels is None:
            continue
        key = _series_key(labels)
        actual = series.pop(key, 0.0 if kind == "counter" else None)
        if actual != value:
            violations.append(
                f"obs-consistency: {_series_name(name, key)} exported "
                f"{actual} but the report says {value}"
            )
    for name, series in sorted(unread.items()):
        for key, actual in sorted((series or {}).items()):
            violations.append(
                f"obs-consistency: {_series_name(name, key)} exported "
                f"{actual} but the report has no such series"
            )
    return violations


def _series_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _series_name(name: str, key: tuple) -> str:
    """``name{k=v,...}`` with the labels in sorted order."""
    if not key:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


def _check_class_conservation(scenario, report, registry) -> list[str]:
    """Per-SLO-class conservation + the interactive protection pledge.

    Every class accounts all its requests, and no class with shed
    priority 0 (``interactive``) is ever brownout-shed — an admitted-or-
    shed-with-reason ledger, never a silent drop.
    """
    if scenario.admission is None:
        return []
    violations = []
    protected = {
        cls.name for cls in scenario.admission.classes
        if cls.shed_priority == 0
    }
    for name, stats in sorted(report.tenants.items()):
        class_total = 0
        for slo_class, entry in sorted(stats.by_class.items()):
            accounted = entry.served + entry.failed + entry.shed
            class_total += entry.offered
            if accounted != entry.offered:
                violations.append(
                    f"class-conservation: tenant {name!r} class "
                    f"{slo_class!r} accounted {accounted} of "
                    f"{entry.offered} offered requests"
                )
            if slo_class in protected and entry.shed_for("brownout"):
                violations.append(
                    f"class-conservation: protected class {slo_class!r} of "
                    f"tenant {name!r} was brownout-shed "
                    f"{entry.shed_for('brownout')} times"
                )
        if class_total != stats.offered:
            violations.append(
                f"class-conservation: tenant {name!r} class breakdown "
                f"covers {class_total} of {stats.offered} offered requests"
            )
    return violations


def _check_class_availability_floors(scenario, report, registry) -> list[str]:
    """Per-class availability-while-healthy floors (across tenants)."""
    violations = []
    for slo_class, floor in scenario.class_availability_floors:
        served = 0
        eligible = 0
        for stats in report.tenants.values():
            entry = stats.by_class.get(slo_class)
            if entry is None:
                continue
            served += entry.served
            eligible += entry.offered - entry.shed_for("no-capacity")
        achieved = served / eligible if eligible else 1.0
        if achieved < floor:
            violations.append(
                f"class-availability-floor: class {slo_class!r} served "
                f"{achieved:.4f} < floor {floor} while >= 1 replica "
                f"was healthy"
            )
    return violations


def _check_brownout_ordering(scenario, report, registry) -> list[str]:
    """Brownout sheds batch before standard before interactive.

    If a class with a *lower* shed priority took brownout sheds, every
    class shedding *earlier* (higher priority) that saw traffic must have
    taken some too — degradation never skips over the sacrificial tier.
    """
    if scenario.admission is None:
        return []
    violations = []
    brownout: dict[str, int] = {}
    offered: dict[str, int] = {}
    for stats in report.tenants.values():
        for slo_class, entry in stats.by_class.items():
            brownout[slo_class] = (
                brownout.get(slo_class, 0) + entry.shed_for("brownout")
            )
            offered[slo_class] = offered.get(slo_class, 0) + entry.offered
    priorities = {
        cls.name: cls.shed_priority for cls in scenario.admission.classes
    }
    for lower, lower_priority in sorted(priorities.items()):
        if lower_priority == 0 or not brownout.get(lower, 0):
            continue
        for higher, higher_priority in sorted(priorities.items()):
            if (
                higher_priority > lower_priority
                and offered.get(higher, 0) > 0
                and brownout.get(higher, 0) == 0
            ):
                violations.append(
                    f"brownout-ordering: class {lower!r} (priority "
                    f"{lower_priority}) was brownout-shed while "
                    f"earlier-shed class {higher!r} (priority "
                    f"{higher_priority}) was not"
                )
    return violations


def _check_autoscaler_convergence(scenario, report, registry) -> list[str]:
    """The autoscaler converges — no flapping between up and down."""
    if scenario.autoscaler is None:
        return []
    violations = []
    if report.autoscale_reversals > MAX_SCALE_REVERSALS:
        violations.append(
            f"autoscaler-convergence: {report.autoscale_reversals} "
            f"up/down reversals > allowed {MAX_SCALE_REVERSALS} "
            f"({report.autoscale_ups} ups, {report.autoscale_downs} downs)"
        )
    return violations


def _check_power_integrity(scenario, report, registry) -> list[str]:
    """The governor never over-commits the budget it was given.

    Every governor window: the freshly apportioned device caps sum to at
    most that window's fleet budget, and the modelled draw never exceeds
    the caps that were in force while the window elapsed.
    """
    power = report.power
    if power is None:
        return []
    violations = []
    for row in power["window_rows"]:
        end_ms = row["end_ns"] / 1e6
        if row["cap_watts"] > row["budget_watts"] + 1e-9:
            violations.append(
                f"power-integrity: window ending {end_ms:.1f}ms apportioned "
                f"{row['cap_watts']:.3f}W of caps over budget "
                f"{row['budget_watts']:.3f}W"
            )
        if row["draw_watts"] > row["cap_in_force_watts"] + 1e-9:
            violations.append(
                f"power-integrity: window ending {end_ms:.1f}ms drew "
                f"{row['draw_watts']:.3f}W over the {row['cap_in_force_watts']:.3f}W "
                f"of caps in force"
            )
        if not 0.0 <= row["throttle_ratio"] <= 1.0:
            violations.append(
                f"power-integrity: window ending {end_ms:.1f}ms throttle "
                f"ratio {row['throttle_ratio']} outside [0, 1]"
            )
    return violations


def _check_end_to_end_correctness(scenario, report, registry) -> list[str]:
    """Corrupted results never reach clients beyond the declared budget.

    Three clauses, all over the report's ``sdc`` section: (1) the section
    exists exactly when the scenario declares a defense; (2) the
    conserved ledger holds — every injected corruption event lands in
    exactly one detection bucket or the served bucket; (3) the served
    bucket stays within ``max_sdc_served`` and the worst detection
    latency within ``sdc_detection_latency_ms``. ``obs-consistency``
    holds the exported SDC metrics to the same section.
    """
    sdc = report.sdc
    if scenario.sdc is None:
        if sdc is not None:
            return [
                "end-to-end-correctness: report has an 'sdc' section but "
                "the scenario declares no SdcConfig (detached path broken)"
            ]
        return []
    violations = []
    if sdc is None:
        return [
            "end-to-end-correctness: scenario declares an SdcConfig but "
            "the report has no 'sdc' section"
        ]
    detected_total = sum(sdc["detected"].values())
    if detected_total != sdc["detected_total"]:
        violations.append(
            f"end-to-end-correctness: detection buckets sum to "
            f"{detected_total} but detected_total says "
            f"{sdc['detected_total']}"
        )
    accounted = sdc["detected_total"] + sdc["served_corrupted"]
    if accounted != sdc["injected"]:
        violations.append(
            f"end-to-end-correctness: ledger accounts {accounted} of "
            f"{sdc['injected']} injected corruption events "
            f"(detected {sdc['detected_total']} + served "
            f"{sdc['served_corrupted']})"
        )
    if sdc["served_corrupted"] > scenario.max_sdc_served:
        violations.append(
            f"end-to-end-correctness: {sdc['served_corrupted']} corrupted "
            f"results reached clients, over the declared ceiling of "
            f"{scenario.max_sdc_served}"
        )
    bound = scenario.sdc_detection_latency_ms
    if bound is not None and sdc["max_detection_latency_ms"] > bound:
        violations.append(
            f"end-to-end-correctness: worst detection latency "
            f"{sdc['max_detection_latency_ms']:.3f}ms over the declared "
            f"bound of {bound}ms"
        )
    return violations


#: Declared invariants, checked in order after every scenario. Each entry
#: is ``(name, check(scenario, report, registry) -> [violation, ...])``.
INVARIANTS = (
    ("conservation", _check_conservation),
    ("availability-floor", _check_availability_floor),
    ("monotone-time", _check_monotone_time),
    ("obs-consistency", _check_obs_consistency),
    ("class-conservation", _check_class_conservation),
    ("class-availability-floor", _check_class_availability_floors),
    ("brownout-ordering", _check_brownout_ordering),
    ("autoscaler-convergence", _check_autoscaler_convergence),
    ("power-integrity", _check_power_integrity),
    ("end-to-end-correctness", _check_end_to_end_correctness),
)


#: Which catalogue invariants actively constrain a scenario (beyond the
#: vacuous pass every check returns when its feature is absent), plus the
#: sweep checks run_scenario adds outside the catalogue. ``repro chaos
#: --list`` prints these per scenario.
_ALWAYS_INVARIANTS = (
    "conservation", "availability-floor", "monotone-time", "obs-consistency",
)


def declared_invariants(scenario: ChaosScenario) -> list[str]:
    """The invariant names a scenario's configuration puts in force."""
    names = list(_ALWAYS_INVARIANTS)
    if scenario.admission is not None:
        names += ["class-conservation", "brownout-ordering"]
    if scenario.class_availability_floors:
        names.append("class-availability-floor")
    if scenario.autoscaler is not None:
        names.append("autoscaler-convergence")
    if scenario.powercap is not None:
        names.append("power-integrity")
    if scenario.sdc is not None:
        names += ["end-to-end-correctness", "undefended-exposure"]
    if scenario.overload_multipliers:
        names.append("shed-monotonicity")
    if scenario.cap_multipliers:
        names.append("cap-monotonicity")
    return names


# ---------------------------------------------------------------------------
# built-in scenario suite
# ---------------------------------------------------------------------------

#: Shared overload-scenario serving policy. Tenant "a" keeps the 1 ms
#: synthetic service time; at max_batch=8 on the i20 batch curve one
#: replica sustains ~1.47 krps, so the two-active-replica fleets below
#: saturate near 2.9 krps offered.
_OVERLOAD_TENANTS = (
    TenantConfig(
        "a", "resnet50", groups=2, max_batch=8, sla_ms=50.0,
        coalesce_window_ms=2.0,
    ),
)
_OVERLOAD_ADMISSION = AdmissionPolicy(
    classes=(
        SloClass(
            "interactive", deadline_ms=60.0, queue_limit=64, shed_priority=0
        ),
        SloClass(
            "standard", deadline_ms=120.0, queue_limit=48, shed_priority=1
        ),
        SloClass("batch", deadline_ms=None, queue_limit=48, shed_priority=2),
    ),
    brownout_enter=0.5,
    brownout_exit=0.25,
)
_OVERLOAD_AUTOSCALER = AutoscalerConfig(
    min_active=1, max_active=4, eval_interval_ms=25.0,
    p99_targets_ms=(("interactive", 40.0), ("standard", 150.0)),
    cooldown_ms=75.0, scale_down_consecutive=3,
)


def _flash_crowd_load(
    interactive: float, standard: float, batch: float, flash_at_s: float = 0.15
) -> tuple[LoadSpec, ...]:
    """Three-class open-loop population with an interactive flash crowd."""
    return (
        LoadSpec(
            tenant="a", rate_per_s=interactive, slo_class="interactive",
            shape="flash-crowd", users=200, flash_at_s=flash_at_s,
            flash_duration_s=0.2, flash_multiplier=4.0, flash_ramp_s=0.05,
        ),
        LoadSpec(
            tenant="a", rate_per_s=standard, slo_class="standard",
            shape="diurnal", users=300, period_s=0.5, amplitude=0.6,
        ),
        LoadSpec(
            tenant="a", rate_per_s=batch, slo_class="batch",
            shape="poisson", users=50, session_mean_requests=8.0,
        ),
    )


def _builtin_scenarios() -> dict[str, ChaosScenario]:
    scenarios = [
        ChaosScenario(
            name="baseline",
            description="no faults: the fleet must be lossless and exact",
            schedule=FaultSchedule(),
            availability_floor=1.0,
        ),
        ChaosScenario(
            name="transient-storm",
            description="mid-run burst of DMA/ECC transients on every board",
            schedule=FaultSchedule(
                phases=(
                    StormPhase(
                        start_s=0.15, end_s=0.35,
                        plan=FaultPlan(
                            dma_corrupt_rate=0.004, ecc_ce_rate=0.004,
                        ),
                    ),
                ),
            ),
            availability_floor=0.98,
        ),
        ChaosScenario(
            name="replica-kill",
            description=(
                "replica r1 dies mid-run; hedged failover keeps every "
                "request alive while it quarantines, repairs, reintegrates"
            ),
            schedule=FaultSchedule(
                phases=(StormPhase.kill(device=1, at_s=0.15, duration_s=0.2),),
            ),
            fleet=FleetConfig(
                replicas=2, hot_spares=1, repair_ms=60.0,
                quarantine_threshold=2,
            ),
            availability_floor=0.99,
        ),
        ChaosScenario(
            name="rolling-ramp",
            description="fault pressure ramping from zero across the fleet",
            schedule=FaultSchedule(
                phases=(
                    StormPhase(
                        start_s=0.0, end_s=0.5,
                        plan=FaultPlan(
                            dma_corrupt_rate=0.006, ecc_ce_rate=0.006,
                            dma_abort_rate=0.0015,
                        ),
                        ramp=True,
                    ),
                ),
            ),
            availability_floor=0.95,
            quick=False,
        ),
        ChaosScenario(
            name="correlated-outage",
            description=(
                "two boards killed in overlapping windows: spares promote, "
                "survivors absorb the hedges"
            ),
            schedule=FaultSchedule(
                phases=(
                    StormPhase.kill(device=0, at_s=0.1, duration_s=0.15),
                    StormPhase.kill(device=1, at_s=0.15, duration_s=0.15),
                ),
            ),
            fleet=FleetConfig(
                replicas=3, hot_spares=1, repair_ms=80.0,
                quarantine_threshold=2,
            ),
            availability_floor=0.95,
            quick=False,
        ),
        ChaosScenario(
            name="flash-crowd",
            description=(
                "interactive flash crowd over a fault-free fleet: brownout "
                "sheds batch first, the autoscaler absorbs the spike"
            ),
            schedule=FaultSchedule(),
            tenants=_OVERLOAD_TENANTS,
            load=_flash_crowd_load(400.0, 500.0, 600.0),
            admission=_OVERLOAD_ADMISSION,
            autoscaler=_OVERLOAD_AUTOSCALER,
            fleet=FleetConfig(replicas=2, hot_spares=2, repair_ms=60.0),
            availability_floor=0.5,
            class_availability_floors=(("interactive", 0.9),),
        ),
        ChaosScenario(
            name="overload-storm",
            description=(
                "flash crowd times fault storm at ~2x capacity: interactive "
                "survives, batch sheds, and the shed rate rises "
                "monotonically with offered overload"
            ),
            schedule=FaultSchedule(
                phases=(
                    StormPhase(
                        start_s=0.15, end_s=0.35,
                        plan=FaultPlan(
                            dma_corrupt_rate=0.002, ecc_ce_rate=0.002,
                        ),
                    ),
                ),
            ),
            tenants=_OVERLOAD_TENANTS,
            load=_flash_crowd_load(500.0, 900.0, 1300.0),
            admission=_OVERLOAD_ADMISSION,
            autoscaler=_OVERLOAD_AUTOSCALER,
            fleet=FleetConfig(replicas=2, hot_spares=2, repair_ms=60.0),
            availability_floor=0.3,
            class_availability_floors=(("interactive", 0.9),),
            overload_multipliers=(0.5, 1.0, 1.5, 2.0),
            quick=False,
        ),
        ChaosScenario(
            name="scale-up-race",
            description=(
                "a replica dies exactly as the flash crowd lands: failover "
                "promotion and autoscaler promotion race for the spares "
                "without flapping or losing requests"
            ),
            schedule=FaultSchedule(
                phases=(StormPhase.kill(device=1, at_s=0.15, duration_s=0.2),),
            ),
            tenants=_OVERLOAD_TENANTS,
            load=_flash_crowd_load(400.0, 500.0, 600.0, flash_at_s=0.15),
            admission=_OVERLOAD_ADMISSION,
            autoscaler=_OVERLOAD_AUTOSCALER,
            fleet=FleetConfig(
                replicas=2, hot_spares=2, repair_ms=60.0,
                quarantine_threshold=2,
            ),
            availability_floor=0.3,
            class_availability_floors=(("interactive", 0.85),),
            quick=False,
        ),
        ChaosScenario(
            name="power-cap-storm",
            description=(
                "datacenter power budget cut in waves — step, ramp, "
                "oscillation — over a fault-free fleet: devices downclock "
                "and stall instead of shedding, and a tighter storm "
                "never costs more energy"
            ),
            schedule=FaultSchedule(),
            fleet=FleetConfig(replicas=2, hot_spares=1, repair_ms=60.0),
            # Heavy enough that dynamic energy dominates window
            # quantization noise — the cap-monotonicity sweep needs the
            # V^2 savings visible above discretization jitter.
            traffic=(
                TrafficPattern("a", 1200.0),
                TrafficPattern("b", 80.0),
            ),
            powercap=PowerCapConfig(
                fleet_budget_watts=450.0,
                phases=(
                    PowerCapPhase(0.10, 0.22, 330.0, shape="step"),
                    PowerCapPhase(0.22, 0.34, 300.0, shape="ramp"),
                    PowerCapPhase(
                        0.36, 0.48, 345.0, shape="oscillate", period_s=0.04
                    ),
                ),
            ),
            cap_multipliers=(1.0, 0.85, 0.75),
            availability_floor=0.98,
        ),
        ChaosScenario(
            name="cap-with-device-loss",
            description=(
                "a board dies in the middle of a power-cap step: failover "
                "and the governor re-apportion the same shrinking budget "
                "without losing requests or over-committing a watt"
            ),
            schedule=FaultSchedule(
                phases=(StormPhase.kill(device=1, at_s=0.15, duration_s=0.2),),
            ),
            fleet=FleetConfig(
                replicas=2, hot_spares=1, repair_ms=60.0,
                quarantine_threshold=2,
            ),
            powercap=PowerCapConfig(
                fleet_budget_watts=450.0,
                phases=(PowerCapPhase(0.10, 0.35, 330.0, shape="step"),),
            ),
            availability_floor=0.95,
            quick=False,
        ),
        ChaosScenario(
            name="silent-corruption-storm",
            description=(
                "mid-run burst of silent GEMM/DMA/codec corruption on "
                "every board: strict ABFT, golden-vector screens and "
                "sampled audits keep every served result clean"
            ),
            schedule=FaultSchedule(
                phases=(
                    StormPhase(
                        start_s=0.1, end_s=0.35,
                        plan=FaultPlan(
                            sdc_gemm_rate=0.004, sdc_dma_rate=0.002,
                            sdc_sparse_rate=0.002,
                        ),
                    ),
                ),
            ),
            fleet=FleetConfig(
                replicas=2, hot_spares=2, repair_ms=60.0,
                quarantine_threshold=2, screen_vectors=3,
            ),
            sdc=SdcConfig(
                abft="strict", screen_interval_ms=40.0, screen_vectors=2,
                screen_cost_ms=2.0, audit_fraction=0.25,
                quarantine_threshold=2, retire_after=8,
            ),
            max_sdc_served=0,
            sdc_detection_latency_ms=50.0,
            availability_floor=0.9,
        ),
        ChaosScenario(
            name="defective-core-outbreak",
            description=(
                "one board's defective core corrupts a quarter of its "
                "launches for most of the run: probe ABFT plus screens "
                "convict the repeat offender and retire it, the spare "
                "absorbs the traffic"
            ),
            schedule=FaultSchedule(
                phases=(
                    StormPhase(
                        start_s=0.05, end_s=0.45,
                        plan=FaultPlan(
                            sdc_gemm_rate=0.02, sdc_cores=(3,),
                        ),
                        devices=(1,),
                    ),
                ),
            ),
            fleet=FleetConfig(
                replicas=2, hot_spares=2, repair_ms=60.0,
                quarantine_threshold=2, screen_vectors=3,
            ),
            sdc=SdcConfig(
                abft="probe", probe_coverage=0.9,
                screen_interval_ms=30.0, screen_vectors=3,
                screen_cost_ms=2.0, quarantine_threshold=2, retire_after=6,
            ),
            max_sdc_served=6,
            sdc_detection_latency_ms=50.0,
            availability_floor=0.9,
            quick=False,
        ),
    ]
    return {scenario.name: scenario for scenario in scenarios}


SCENARIOS: dict[str, ChaosScenario] = _builtin_scenarios()


def scenario_names(quick: bool = False) -> list[str]:
    """Built-in scenario names, optionally only the CI smoke subset."""
    return [
        name for name, scenario in SCENARIOS.items()
        if scenario.quick or not quick
    ]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run_scenario(
    scenario: ChaosScenario,
    seed: int = 0,
    obs: Observability | None = None,
    measured: bool = False,
) -> ScenarioResult:
    """Run one scenario and check every declared invariant.

    ``seed`` is the *root* seed: the scenario's fleet seed and traffic
    seed both derive from it (``scenario:<name>`` / ``trace:<name>``
    streams), so one root reproduces the entire suite. With
    ``measured=True`` the fleet uses detailed-simulator service times
    (memoized process-wide) instead of the synthetic defaults.
    """
    own_obs = obs if obs is not None else Observability()
    fleet_config = replace(
        scenario.fleet, seed=derive_seed(seed, "scenario", scenario.name)
    )
    service_times = None if measured else dict(DEFAULT_SERVICE_TIMES_NS)
    if service_times is not None:
        missing = [
            t.name for t in scenario.tenants if t.name not in service_times
        ]
        for name in missing:
            service_times[name] = 2.0e6
    manager = _fleet(scenario, fleet_config, service_times, obs=own_obs)
    trace = _scenario_trace(scenario, seed)
    report = manager.run(trace)
    violations: list[str] = []
    for _name, check in INVARIANTS:
        violations.extend(check(scenario, report, own_obs.metrics))
    sweep = None
    if scenario.overload_multipliers:
        sweep = _overload_sweep(
            scenario, seed, fleet_config, service_times, violations
        )
    cap_sweep = None
    if scenario.cap_multipliers:
        cap_sweep = _cap_sweep(
            scenario, seed, fleet_config, service_times, violations
        )
    sdc_control = None
    if scenario.sdc is not None:
        sdc_control = _sdc_control(
            scenario, seed, fleet_config, service_times, violations
        )
    return ScenarioResult(
        scenario=scenario, report=report, violations=violations, sweep=sweep,
        cap_sweep=cap_sweep, sdc_control=sdc_control,
    )


def _fleet(
    scenario: ChaosScenario,
    fleet_config: FleetConfig,
    service_times: dict[str, float] | None,
    **overrides,
) -> FleetManager:
    """The scenario's whole fleet; ``overrides`` replace single parts.

    The main run and every re-run (overload sweep, cap sweep, SDC
    control) build through here, so a re-run differs from the main run
    only in the parts it names — the obs hub, a scaled power cap or the
    defenses-off SDC config.
    """
    parts = {
        "schedule": scenario.schedule,
        "ras": scenario.ras,
        "admission": scenario.admission,
        "autoscaler": scenario.autoscaler,
        "powercap": scenario.powercap,
        "sdc": scenario.sdc,
        **overrides,
    }
    return FleetManager(
        list(scenario.tenants), config=fleet_config,
        service_times_ns=service_times, **parts,
    )


def _scenario_trace(
    scenario: ChaosScenario, seed: int, multiplier: float = 1.0
) -> list[Request]:
    """The scenario's request trace, open-loop (``load``) or legacy.

    ``multiplier`` scales every baseline rate (the overload sweep); the
    stream seed stays fixed so runs at different multipliers share one
    root and stay individually byte-reproducible.
    """
    if scenario.load:
        specs = [
            replace(spec, rate_per_s=spec.rate_per_s * multiplier)
            for spec in scenario.load
        ]
        return generate_load(
            specs,
            duration_s=scenario.duration_s,
            seed=derive_seed(seed, "load", scenario.name) % 2**32,
        )
    patterns = [
        replace(pattern, rate_per_s=pattern.rate_per_s * multiplier)
        for pattern in scenario.traffic
    ]
    return generate_trace(
        patterns,
        duration_s=scenario.duration_s,
        seed=derive_seed(seed, "trace", scenario.name) % 2**32,
    )


def _overload_sweep(
    scenario: ChaosScenario,
    seed: int,
    fleet_config: FleetConfig,
    service_times: dict[str, float] | None,
    violations: list[str],
) -> list[dict]:
    """Shed-monotonicity: re-run at scaled offered loads, off-telemetry.

    The shed *rate* (shed / offered) must be non-decreasing in the
    offered-load multiplier — an admission layer that sheds less as
    overload deepens is lying about its backpressure. Runs on a separate
    fleet without observability so the main run's exported metrics stay
    exactly what the obs-consistency invariant audited.
    """
    sweep_manager = _fleet(scenario, fleet_config, service_times)
    rows: list[dict] = []
    previous_rate: float | None = None
    for multiplier in scenario.overload_multipliers:
        trace = _scenario_trace(scenario, seed, multiplier=multiplier)
        report = sweep_manager.run(trace)
        offered = sum(s.offered for s in report.tenants.values())
        shed = sum(s.shed for s in report.tenants.values())
        shed_rate = shed / offered if offered else 0.0
        rows.append(
            {
                "multiplier": multiplier, "offered": offered,
                "shed": shed, "shed_rate": shed_rate,
            }
        )
        if previous_rate is not None and shed_rate < previous_rate - 0.01:
            violations.append(
                f"shed-monotonicity: shed rate {shed_rate:.4f} at "
                f"{multiplier}x offered load below {previous_rate:.4f} "
                f"at the previous multiplier"
            )
        previous_rate = max(previous_rate or 0.0, shed_rate)
    return rows


def _cap_sweep(
    scenario: ChaosScenario,
    seed: int,
    fleet_config: FleetConfig,
    service_times: dict[str, float] | None,
    violations: list[str],
) -> list[dict]:
    """Cap-monotonicity: re-run the same trace under tightening budgets.

    Scaling the whole storm's budget down (base + every phase at once,
    via :meth:`PowerCapConfig.scaled`) must not *increase* total
    modelled energy — downclocking saves super-linear dynamic power, so
    in the DVFS-dominated region the scenario is sized for, a tighter
    cap is strictly cheaper. Tighter runs drain their dilated tails
    later, so every run's energy is *leveled* to the sweep's longest
    horizon first (boards idling at floor power for the difference) —
    otherwise a few extra milliseconds of idle burn would dominate the
    comparison. Runs off-telemetry on a separate fleet so the main
    run's exported metrics stay exactly what the obs-consistency
    invariant audited.
    """
    rows: list[dict] = []
    horizons: list[float] = []
    for multiplier in scenario.cap_multipliers:
        manager = _fleet(
            scenario, fleet_config, service_times,
            powercap=scenario.powercap.scaled(multiplier),
        )
        trace = _scenario_trace(scenario, seed)
        report = manager.run(trace)
        power = report.power
        served = sum(s.served for s in report.tenants.values())
        horizons.append(report.horizon_ns)
        rows.append(
            {
                "multiplier": multiplier,
                "budget_watts": power["budget_watts"],
                "energy_joules": power["energy_joules"],
                "energy_per_inference_mj": power["energy_per_inference_mj"],
                "mean_throttle_ratio": power["mean_throttle_ratio"],
                "served": served,
            }
        )
    # Device count is fleet-config-fixed, so the last run's roster works
    # for every row.
    idle_floor_watts = (
        DEVICE_IDLE_WATTS * len(power["devices"])
        if rows else 0.0
    )
    common_horizon = max(horizons, default=0.0)
    previous_energy: float | None = None
    for row, horizon in zip(rows, horizons):
        leveled = row["energy_joules"] + idle_floor_watts * (
            (common_horizon - horizon) / 1e9
        )
        row["leveled_energy_joules"] = leveled
        if previous_energy is not None and leveled > previous_energy + 1e-6:
            violations.append(
                f"cap-monotonicity: {row['multiplier']}x budget used "
                f"{leveled:.3f}J (horizon-leveled), more than "
                f"{previous_energy:.3f}J at the previous (looser) multiplier"
            )
        previous_energy = leveled
    return rows


def _sdc_control(
    scenario: ChaosScenario,
    seed: int,
    fleet_config: FleetConfig,
    service_times: dict[str, float] | None,
    violations: list[str],
) -> dict:
    """Undefended-exposure: rerun the same storm with every defense off.

    Same seed, same trace, same corruption schedule — but no ABFT, no
    screener, no audits. If even this run serves zero corrupted results
    the storm never threatened anything, and the defended scenario's
    ``max_sdc_served`` ceiling is a vacuous pass; that is flagged as a
    violation. Runs off-telemetry on a separate fleet so the main run's
    exported metrics stay exactly what the obs-consistency invariant
    audited.
    """
    manager = _fleet(scenario, fleet_config, service_times, sdc=SdcConfig())
    trace = _scenario_trace(scenario, seed)
    report = manager.run(trace)
    control = report.sdc
    if control["served_corrupted"] < 1:
        violations.append(
            "undefended-exposure: the defenses-off control run served "
            f"{control['served_corrupted']} corrupted results — the storm "
            "never threatened correctness, so the defended ceiling is "
            "vacuous"
        )
    return control


def _run_scenario_task(task) -> ScenarioResult:
    """Sharded-worker body: one named scenario run (picklable result)."""
    name, seed, measured = task
    return run_scenario(SCENARIOS[name], seed=seed, measured=measured)


def run_suite(
    names: list[str] | None = None,
    seed: int = 0,
    quick: bool = False,
    measured: bool = False,
    workers: int | None = None,
) -> SuiteResult:
    """Run a set of built-in scenarios (all, the quick subset, or named).

    Scenarios are independent simulations — every stream derives from
    ``(seed, scenario name)``, never from suite position — so they run
    sharded across worker processes via :mod:`repro.sim.parallel` and
    merge back in declared order, byte-identical to a serial run.
    ``workers=1`` forces the serial path.
    """
    selected = names if names is not None else scenario_names(quick=quick)
    for name in selected:
        if name not in SCENARIOS:
            raise KeyError(
                f"unknown chaos scenario {name!r}; "
                f"choose from {sorted(SCENARIOS)}"
            )
    if measured:
        # Warm the measurement memo once in the parent; otherwise every
        # shard re-measures the same tenant models from scratch.
        for device, model, groups in sorted(
            {
                (SCENARIOS[name].fleet.device, tenant.model, tenant.groups)
                for name in selected
                for tenant in SCENARIOS[name].tenants
            }
        ):
            measure_service_time_ns(model, groups, device=device)
    suite = SuiteResult(seed=seed)
    suite.results = run_sharded(
        _run_scenario_task,
        [(name, seed, measured) for name in selected],
        workers=workers,
    )
    return suite


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_table(suite: SuiteResult) -> str:
    """The ``repro chaos`` scenario table, one row per scenario."""
    header = (
        f"{'scenario':<18} {'offered':>7} {'served':>6} {'fail':>5} "
        f"{'shed':>5} {'hedge':>5} {'fovr':>5} {'quar':>5} {'reint':>5} "
        f"{'healthy':>8} {'avail':>7}  result"
    )
    lines = [header, "-" * len(header)]
    for result in suite.results:
        report = result.report
        offered = sum(s.offered for s in report.tenants.values())
        served = sum(s.served for s in report.tenants.values())
        failed = sum(s.failed for s in report.tenants.values())
        shed = sum(s.shed for s in report.tenants.values())
        availability = min(
            (s.availability_while_healthy for s in report.tenants.values()),
            default=1.0,
        )
        healthy = f"{report.min_healthy}/{report.final_healthy}"
        verdict = "PASS" if result.passed else "FAIL"
        lines.append(
            f"{result.scenario.name:<18} {offered:>7} {served:>6} "
            f"{failed:>5} {shed:>5} {report.hedged_requests:>5} "
            f"{report.failovers:>5} {report.quarantines:>5} "
            f"{report.reintegrations:>5} {healthy:>8} "
            f"{availability:>6.1%}  {verdict}"
        )
        for violation in result.violations:
            lines.append(f"    ! {violation}")
    lines.append("-" * len(header))
    verdict = "PASS" if suite.passed else "FAIL"
    lines.append(
        f"{len(suite.results)} scenarios, seed {suite.seed}: {verdict}"
    )
    return "\n".join(lines)
