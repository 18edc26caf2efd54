"""The FleetManager against its committed golden, byte for byte.

``tests/serving/data/fleet_golden.json`` holds every ``FleetReport`` over
the grid in ``tools/fleet_golden.py`` (bring-up validation x kill storm x
observability hub), plus the hub's metrics and Chrome trace events where
one is attached, and every subset of the optional fleet features under a
kill plus a silent-corruption storm. Any change to when a card opens or
launches, to the repair lifecycle, to how the features couple or to what
a launch reports shows up here; rewrite the file only for an intended
change.

The metrics catalogue of docs/observability.md is held equal, in names,
kinds and label names, to what the all-features fleet cell, a served
InferenceServer run and one faulted launch register.
"""

import importlib.util
import itertools
import json
import re
from pathlib import Path

from repro.faults import FaultInjector, FaultPlan
from repro.graph.builder import GraphBuilder
from repro.obs import Observability
from repro.obs.exporters import to_json_snapshot
from repro.runtime.runtime import Device
from repro.serving import (
    AdmissionPolicy,
    InferenceServer,
    LoadSpec,
    RasConfig,
    SloClass,
    TenantConfig,
    generate_load,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "fleet_golden", REPO_ROOT / "tools" / "fleet_golden.py"
)
fleet_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fleet_golden)


def test_fleet_reports_match_the_golden():
    assert fleet_golden.render() == fleet_golden.GOLDEN.read_text()


def _feature_cells():
    golden = json.loads(fleet_golden.GOLDEN.read_text())
    for mask in itertools.product((False, True), repeat=3):
        features = tuple(
            name for name, on in zip(fleet_golden.FEATURES, mask) if on
        )
        yield features, golden[fleet_golden.feature_key(features)]


def test_every_feature_acts_in_its_cells():
    """A feature cell pins a coupling only if the feature did something."""
    for features, cell in _feature_cells():
        report = cell["report"]
        assert report["quarantines"] > 0, features
        if "scaling" in features:
            assert report["autoscale_ups"] + report["autoscale_downs"] > 0
            assert report["max_brownout_level"] > 0
        if "powercap" in features:
            power = report["power"]
            assert power["reapportions"] > 0
            assert power["parked_device_windows"] > 0
            if "scaling" in features:
                assert power["power_blocked_scaleups"] > 0
                assert power["brownout_pressure_windows"] > 0
        else:
            assert "power" not in report
        if "sdc" in features:
            sdc = report["sdc"]
            assert sum(sdc["detected"].values()) > 0
            assert sdc["audits_run"] > 0
            assert sdc["screens_run"] > 0
        else:
            assert "sdc" not in report


#: Catalogue sections (docs/observability.md) of the metrics a launch
#: reports; a fleet hub holds these from its probe launches.
LAUNCH_SECTIONS = ("Runtime", "Caches", "Simulator", "Faults", "Power (")
#: Sections the FleetManager itself exports.
FLEET_SECTIONS = ("Fleet (", "Fleet power governor", "SDC defense")


def _catalogue() -> dict[str, dict[str, list[str]]]:
    """Metrics catalogue of docs/observability.md: heading -> {metric:
    [kind, labels, meaning]}; a row naming two metrics (``a`` / ``b``)
    gives both the same cells."""
    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    body = text.split("## Metrics catalogue", 1)[1].split("\n## ", 1)[0]
    sections: dict[str, dict[str, list[str]]] = {}
    rows: dict[str, list[str]] = {}
    for line in body.splitlines():
        if line.startswith("### "):
            rows = sections[line[4:]] = {}
        elif line.startswith("| `"):
            cells = [
                cell.strip()
                for cell in re.split(r"(?<!\\)\|", line.strip("|"))
            ]
            for name in re.findall(r"`([^`]+)`", cells[0]):
                rows[name] = cells[1:]
    return sections


def _documented(*sections: str, owner_not: str | None = None):
    """Rows of the catalogue sections whose heading starts with one of
    ``sections``, less rows whose meaning names ``owner_not``."""
    rows: dict[str, list[str]] = {}
    for heading, section in _catalogue().items():
        if heading.startswith(sections):
            rows.update(
                (name, cells) for name, cells in section.items()
                if owner_not is None or owner_not not in cells[-1]
            )
    return rows


def _assert_metrics_match(metrics, documented: dict[str, list[str]]) -> None:
    """Names, kinds and label names of JSON-snapshot ``metrics`` equal the
    documented rows."""
    registered = {metric["name"]: metric for metric in metrics}
    assert set(registered) == set(documented)
    for name, (kind, labels, _meaning) in documented.items():
        metric = registered[name]
        assert kind == metric["kind"], name
        assert set(re.findall(r"`([^`]+)`", labels)) == {
            label for sample in metric["samples"] for label in sample["labels"]
        }, name


def test_fleet_metric_catalogue_matches_the_all_features_cell():
    """The fleet, power-governor and SDC tables plus the FleetManager
    admission/autoscaler rows name exactly what a fleet with every
    feature attached exports, with the kind and label names it
    registers."""
    golden = json.loads(fleet_golden.GOLDEN.read_text())
    metrics = golden[fleet_golden.feature_key(fleet_golden.FEATURES)]["metrics"]
    documented = {name for rows in _catalogue().values() for name in rows}
    assert {metric["name"] for metric in metrics} <= documented
    launch = _documented(*LAUNCH_SECTIONS)
    _assert_metrics_match(
        [metric for metric in metrics if metric["name"] not in launch],
        _documented(
            *FLEET_SECTIONS, "Admission + autoscaling",
            owner_not="InferenceServer",
        ),
    )


def test_server_metric_catalogue_matches_a_served_run():
    """The Serving table plus the admission rows an InferenceServer owns
    name exactly what a faulted, admission-controlled server exports."""
    obs = Observability()
    server = InferenceServer(
        [TenantConfig("a", "resnet50", groups=2, max_batch=4, sla_ms=1.5)],
        service_times_ns={"a": 1.0e6},
        fault_plan=FaultPlan(seed=1, dma_corrupt_rate=0.05,
                             dma_abort_rate=0.02),
        ras=RasConfig(max_retries=1, breaker_threshold=1),
        obs=obs,
        admission=AdmissionPolicy(
            classes=(
                SloClass("interactive", deadline_ms=5.0, queue_limit=4,
                         shed_priority=0),
                SloClass("standard", deadline_ms=None, queue_limit=4,
                         shed_priority=1),
            ),
            brownout_enter=0.5, brownout_exit=0.25,
        ),
    )
    server.run(generate_load(
        [LoadSpec("a", 3000.0, slo_class="interactive"),
         LoadSpec("a", 3000.0, slo_class="standard")],
        duration_s=0.05, seed=0,
    ))
    _assert_metrics_match(
        to_json_snapshot(obs)["metrics"],
        _documented("Serving", "Admission", owner_not="FleetManager"),
    )


#: Catalogue rows a launch never registers: the cache gauges appear only
#: through ``repro.caching.export_cache_metrics``, the shard gauges only
#: through ``repro.sim.parallel.export_shard_metrics``, and
#: ``chip_power_watts`` is a tracer counter track, not a registry metric.
NOT_FROM_A_LAUNCH = {
    "cache_hits", "cache_misses", "cache_invalidations", "cache_entries",
    "cache_hit_rate", "sim_shard_workers", "sim_shard_wall_seconds",
    "chip_power_watts",
}


def test_launch_metric_catalogue_matches_a_faulted_launch():
    """The Runtime, Simulator, Faults and Power tables name exactly what
    one retried, faulted launch on a ``Device.open(obs=...)`` card
    exports."""
    builder = GraphBuilder("tiny")
    x = builder.input("x", (1, 8, 32, 32))
    y = builder.relu(builder.conv2d(x, 16, 3, pad=1))
    graph = builder.finish([builder.conv2d(y, 16, 3, pad=1)])
    obs = Observability()
    device = Device.open("i20", obs=obs)
    device.accelerator.attach_faults(FaultInjector(FaultPlan(
        seed=3, dma_abort_rate=0.05, dma_corrupt_rate=0.1, ecc_ce_rate=0.05
    )))
    result = device.launch(device.compile(graph), num_groups=3,
                           max_retries=50)
    assert result.counters["launch_retries"] > 0
    assert {s.name for s in obs.tracer.counter_samples} == {"chip_power_watts"}
    documented = _documented(*LAUNCH_SECTIONS)
    assert NOT_FROM_A_LAUNCH <= set(documented)
    _assert_metrics_match(to_json_snapshot(obs)["metrics"], {
        name: cells for name, cells in documented.items()
        if name not in NOT_FROM_A_LAUNCH
    })
