"""The FleetManager against its committed golden, byte for byte.

``tests/serving/data/fleet_golden.json`` holds every ``FleetReport`` over
the grid in ``tools/fleet_golden.py`` (bring-up validation x kill storm x
observability hub), plus the hub's metrics and Chrome trace events where
one is attached, and every subset of the optional fleet features under a
kill plus a silent-corruption storm. Any change to when a card opens or
launches, to the repair lifecycle, to how the features couple or to what
a launch reports shows up here; rewrite the file only for an intended
change.
"""

import importlib.util
import itertools
import json
import re
from pathlib import Path

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
    [kind, labels, meaning]}."""
    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    body = text.split("## Metrics catalogue", 1)[1].split("\n## ", 1)[0]
    sections: dict[str, dict[str, list[str]]] = {}
    rows: dict[str, list[str]] = {}
    for line in body.splitlines():
        if line.startswith("### "):
            rows = sections[line[4:]] = {}
        elif line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[1:]
    return sections


def test_fleet_metric_catalogue_matches_the_all_features_cell():
    """The fleet, power-governor and SDC tables plus the FleetManager
    admission/autoscaler rows name exactly what a fleet with every
    feature attached exports, with the kind and label names it
    registers."""
    documented: set[str] = set()
    launch: set[str] = set()
    fleet: dict[str, list[str]] = {}
    for heading, rows in _catalogue().items():
        documented |= set(rows)
        if heading.startswith(LAUNCH_SECTIONS):
            launch |= set(rows)
        elif heading.startswith(FLEET_SECTIONS):
            fleet.update(rows)
        elif heading.startswith("Admission + autoscaling"):
            fleet.update(
                (name, cells) for name, cells in rows.items()
                if "InferenceServer" not in cells[-1]
            )
    golden = json.loads(fleet_golden.GOLDEN.read_text())
    cell = golden[fleet_golden.feature_key(fleet_golden.FEATURES)]
    registered = {metric["name"]: metric for metric in cell["metrics"]}
    assert set(registered) <= documented
    assert set(registered) - launch == set(fleet)
    for name, (kind, labels, _meaning) in fleet.items():
        metric = registered[name]
        assert kind == metric["kind"], name
        assert set(re.findall(r"`([^`]+)`", labels)) == {
            label for sample in metric["samples"] for label in sample["labels"]
        }, name
