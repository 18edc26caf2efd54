"""The hostbench serving pins as tier-1 tests: one shared source of truth.

``hostbench/pins.json`` records, at seed 1, the sha256 of every simulated
number one pass of ``server-qos`` (the single-device ``InferenceServer``,
isolated vs shared under a RAS plan) and of ``fleet-1k`` (1,088 replicas
under SLO admission and a flash crowd) produces. A host-side speed-up of
either serving engine must leave both digests byte-identical. The
workloads are loaded from ``hostbench/workloads.py`` by path and the pins
read from the file, so a re-recorded pin and these checks can never drift
apart.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

HOSTBENCH = Path(__file__).resolve().parents[2] / "hostbench"

spec = importlib.util.spec_from_file_location(
    "hostbench_workloads", HOSTBENCH / "workloads.py"
)
workloads = importlib.util.module_from_spec(spec)
# Its dataclasses resolve their annotations through ``sys.modules``.
sys.modules[spec.name] = workloads
spec.loader.exec_module(workloads)

PINS = json.loads((HOSTBENCH / "pins.json").read_text())


@pytest.mark.parametrize("name", ["server-qos", "fleet-1k"])
def test_serving_pass_matches_pin(name):
    workload = workloads.make(name, workloads.DEFAULT_SEED)
    result = workload.summarize(workload.run_pass())
    assert result.failures == []
    assert result.digest == PINS[name]
