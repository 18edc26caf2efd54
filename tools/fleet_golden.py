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
  span and metric a launch reports is pinned (bar the two process-wide
  Timeout-pool gauges).

Traffic is one seeded two-tenant trace; service times are given
explicitly, so only validation and probe launches run the simulator.

Rewrite the file with ``PYTHONPATH=src python tools/fleet_golden.py``;
``tests/serving/test_fleet_golden.py`` holds the fleet to it.
"""

from __future__ import annotations

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

# Gauges over the simulator's process-wide Timeout pool: their values
# depend on everything that ran earlier in the process, not on the fleet.
PROCESS_WIDE = {"sim_timeout_pool_hits", "sim_timeout_pool_misses"}


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


def cells() -> dict[str, dict]:
    """``"bringup/faults/obs" -> {"report": ..., ["metrics", "trace_events"]}``."""
    from repro.obs import Observability, to_chrome_trace, to_json_snapshot

    trace = _trace()
    out: dict[str, dict] = {}
    for bringup, faults, obs_axis in itertools.product(BRINGUPS, FAULTS, OBS):
        obs = Observability() if obs_axis == "hub" else None
        cell = {"report": _fleet(bringup, faults, obs).run(trace).to_dict()}
        if obs is not None:
            cell["metrics"] = [
                metric for metric in to_json_snapshot(obs)["metrics"]
                if metric["name"] not in PROCESS_WIDE
            ]
            cell["trace_events"] = to_chrome_trace(obs.tracer)["traceEvents"]
        out["/".join((bringup, faults, obs_axis))] = cell
    return out


def render() -> str:
    return json.dumps(cells(), indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render())
