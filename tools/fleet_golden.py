"""Record the FleetManager golden: every FleetReport over a config grid.

The grid crosses the fleet's bring-up and lifecycle axes so one file pins
which cards launch, when, and what they report:

- bring-up: ``validate_on_open`` False (no launch until a repair probe)
  or True (one validation launch per card, in index order);
- faults: none, or a kill storm on ``r1`` with one hot spare over a
  background of core slowdowns: bring-up validation launches draw
  faults from each card's own injector (slowdowns leave the request
  path alone), and the killed card is quarantined, promoted around and
  repaired by real probe launches;
- observability: detached, or an attached hub. With a hub the cell also
  holds its JSON metrics snapshot and its Chrome trace events, so every
  span and metric a launch reports is pinned.

Traffic is one seeded two-tenant trace; service times are given
explicitly, so only validation and probe launches run the simulator.

A second axis pins how the optional fleet features couple: every subset
of {admission + autoscaler, power governor, SDC defense} runs one
three-class flash-crowd trace under a kill on ``r1`` plus a silent-
corruption storm on ``r0``/``r2``, always with a hub attached. The
power budget steps down mid-run and then briefly below two idle floors,
so the governor throttles, steers routing around hot boards and parks
active ones, blocks autoscaler promotions and feeds brownout pressure;
the SDC layer runs ABFT, screens and audits against the storm. These
cells hold the report and the metrics snapshot but no trace events: the
fleet itself emits no spans, and the probe launches behind them are the
ones the kill cells already pin.

One more cell, ``unknown-class/scaling``, replays that trace under
admission (a tighter ``standard`` class and a deeper ``batch`` queue) and
the autoscaler, with a fourth flash-crowd stream whose SLO class
(``bulk``) the policy does not name: such arrivals take ``standard``'s
queue limit and deadline, count their depth under their own class name
and stay out of backpressure.

Rewrite the file with ``PYTHONPATH=src python tools/fleet_golden.py``
(``-o PATH`` writes elsewhere); ``tests/serving/test_fleet_golden.py``
holds the fleet to it.
"""

from __future__ import annotations

import argparse
import itertools
import json
from pathlib import Path

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "serving" / "data" / "fleet_golden.json"
)

BRINGUPS = ("lazy", "validate")
FAULTS = ("quiet", "kill")
OBS = ("detached", "hub")
FEATURES = ("scaling", "powercap", "sdc")


def _trace():
    from repro.serving.workload import TrafficPattern, generate_trace

    return generate_trace(
        [TrafficPattern("vision", 200.0), TrafficPattern("seg", 40.0)],
        duration_s=0.5,
        seed=5,
    )


def _fleet(bringup: str, faults: str, obs):
    from repro.faults import FaultPlan, FaultSchedule, StormPhase
    from repro.serving.fleet import FleetConfig, FleetManager
    from repro.serving.server import RasConfig, TenantConfig

    tenants = [
        TenantConfig("vision", "vgg16", groups=1, sla_ms=50.0),
        TenantConfig("seg", "unet", groups=3, sla_ms=None),
    ]
    schedule = None
    if faults == "kill":
        schedule = FaultSchedule(
            base=FaultPlan(core_slowdown_rate=0.2),
            phases=(StormPhase.kill(device=1, at_s=0.15, duration_s=0.2),),
        )
    return FleetManager(
        tenants,
        config=FleetConfig(
            replicas=2, hot_spares=1, quarantine_threshold=2,
            repair_ms=60.0, validate_on_open=bringup == "validate",
        ),
        schedule=schedule,
        ras=RasConfig(max_retries=2, queue_depth_limit=64),
        obs=obs,
        service_times_ns={"vision": 1.0e6, "seg": 5.0e6},
    )


def _feature_trace(unknown_class: bool = False):
    from repro.serving.loadgen import LoadSpec, generate_load

    bulk = [
        LoadSpec(
            tenant="a", rate_per_s=1500.0, slo_class="bulk",
            shape="flash-crowd", users=100, flash_at_s=0.15,
            flash_duration_s=0.1, flash_multiplier=4.0, flash_ramp_s=0.02,
        ),
    ]
    return generate_load(
        [
            LoadSpec(
                tenant="a", rate_per_s=400.0, slo_class="interactive",
                shape="flash-crowd", users=200, flash_at_s=0.1,
                flash_duration_s=0.15, flash_multiplier=4.0,
                flash_ramp_s=0.05,
            ),
            LoadSpec(
                tenant="a", rate_per_s=500.0, slo_class="standard",
                shape="diurnal", users=300, period_s=0.4, amplitude=0.6,
            ),
            LoadSpec(
                tenant="a", rate_per_s=600.0, slo_class="batch",
                shape="poisson", users=50, session_mean_requests=8.0,
            ),
        ] + (bulk if unknown_class else []),
        duration_s=0.4,
        seed=7,
    )


def _feature_fleet(
    features: tuple[str, ...],
    obs,
    standard: tuple[float, int] = (120.0, 48),
    batch_limit: int = 48,
):
    """``standard`` is that class's (deadline_ms, queue_limit)."""
    from repro.faults import FaultPlan, FaultSchedule, StormPhase
    from repro.serving.admission import AdmissionPolicy, SloClass
    from repro.serving.autoscale import AutoscalerConfig
    from repro.serving.fleet import FleetConfig, FleetManager
    from repro.serving.powercap import PowerCapConfig, PowerCapPhase
    from repro.serving.sdc import SdcConfig
    from repro.serving.server import RasConfig, TenantConfig

    scaling = "scaling" in features
    admission = autoscaler = powercap = sdc = None
    if scaling:
        admission = AdmissionPolicy(
            classes=(
                SloClass(
                    "interactive", deadline_ms=60.0, queue_limit=64,
                    shed_priority=0,
                ),
                SloClass(
                    "standard", deadline_ms=standard[0],
                    queue_limit=standard[1], shed_priority=1,
                ),
                SloClass(
                    "batch", deadline_ms=None, queue_limit=batch_limit,
                    shed_priority=2,
                ),
            ),
            brownout_enter=0.5,
            brownout_exit=0.25,
        )
        autoscaler = AutoscalerConfig(
            min_active=1, max_active=4, eval_interval_ms=25.0,
            p99_targets_ms=(("interactive", 40.0), ("standard", 150.0)),
            cooldown_ms=75.0, scale_down_consecutive=3,
        )
    if "powercap" in features:
        powercap = PowerCapConfig(
            fleet_budget_watts=400.0,
            phases=(
                PowerCapPhase(0.1, 0.3, 240.0, shape="step"),
                PowerCapPhase(0.32, 0.35, 80.0, shape="step"),
            ),
        )
    if "sdc" in features:
        sdc = SdcConfig(
            abft="strict", screen_interval_ms=40.0, screen_vectors=2,
            screen_cost_ms=2.0, audit_fraction=0.25,
            quarantine_threshold=2, retire_after=8,
        )
    schedule = FaultSchedule(
        phases=(
            StormPhase.kill(device=1, at_s=0.12, duration_s=0.15),
            StormPhase(
                start_s=0.05, end_s=0.3,
                plan=FaultPlan(sdc_gemm_rate=0.002, sdc_dma_rate=0.001),
                devices=(0, 2),
            ),
        ),
    )
    return FleetManager(
        [
            TenantConfig(
                "a", "resnet50", groups=2, max_batch=8, sla_ms=50.0,
                coalesce_window_ms=2.0,
            ),
        ],
        config=FleetConfig(
            replicas=2, hot_spares=2, seed=3, quarantine_threshold=2,
            repair_ms=60.0, validate_on_open=False,
        ),
        schedule=schedule,
        ras=RasConfig(max_retries=2, queue_depth_limit=64),
        obs=obs,
        service_times_ns={"a": 1.0e6},
        admission=admission,
        autoscaler=autoscaler,
        powercap=powercap,
        sdc=sdc,
    )


def _run(fleet, trace, obs, trace_events: bool = True) -> dict:
    from repro.obs import to_chrome_trace, to_json_snapshot

    cell = {"report": fleet.run(trace).to_dict()}
    if obs is not None:
        cell["metrics"] = to_json_snapshot(obs)["metrics"]
        if trace_events:
            cell["trace_events"] = to_chrome_trace(obs.tracer)["traceEvents"]
    return cell


def feature_key(features: tuple[str, ...]) -> str:
    return "features/" + ("+".join(features) or "none")


def cells() -> dict[str, dict]:
    """``"bringup/faults/obs"``, ``"features/<subset>"`` and
    ``"unknown-class/scaling"`` ->
    ``{"report": ..., ["metrics", "trace_events"]}``."""
    from repro.obs import Observability

    trace = _trace()
    out: dict[str, dict] = {}
    for bringup, faults, obs_axis in itertools.product(BRINGUPS, FAULTS, OBS):
        obs = Observability() if obs_axis == "hub" else None
        out["/".join((bringup, faults, obs_axis))] = _run(
            _fleet(bringup, faults, obs), trace, obs
        )
    trace = _feature_trace()
    # Compile the feature tenant first, so every feature cell's hub sees a
    # compile-cache hit whatever ran earlier in the process.
    _feature_fleet((), None)
    for mask in itertools.product((False, True), repeat=len(FEATURES)):
        features = tuple(
            name for name, on in zip(FEATURES, mask) if on
        )
        obs = Observability()
        out[feature_key(features)] = _run(
            _feature_fleet(features, obs), trace, obs, trace_events=False
        )
    obs = Observability()
    out["unknown-class/scaling"] = _run(
        _feature_fleet(("scaling",), obs, standard=(10.0, 24), batch_limit=200),
        _feature_trace(unknown_class=True), obs, trace_events=False,
    )
    return out


def render() -> str:
    return json.dumps(cells(), indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", type=Path, default=GOLDEN)
    args = parser.parse_args()
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(render())
