"""The FleetManager against its committed golden, byte for byte.

``tests/serving/data/fleet_golden.json`` holds every ``FleetReport`` over
the grid in ``tools/fleet_golden.py`` (bring-up validation x kill storm x
observability hub), plus the hub's metrics and Chrome trace events where
one is attached. Any change to when a card opens or launches, to the
repair lifecycle or to what a launch reports shows up here; rewrite the
file only for an intended change.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "fleet_golden", REPO_ROOT / "tools" / "fleet_golden.py"
)
fleet_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fleet_golden)


def test_fleet_reports_match_the_golden():
    assert fleet_golden.render() == fleet_golden.GOLDEN.read_text()
