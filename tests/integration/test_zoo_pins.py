"""The hostbench zoo pins as a tier-1 test: one shared source of truth.

``hostbench/pins.json["zoo"]`` records every Table III model's simulated
latency and energy (batch 1, FP16, default fusion, recommended groups)
on a fresh i20. Executor, simulator and power-loop changes must leave
all of them bit-identical; this test reads the file rather than copying
its numbers, so a re-recorded pin and this check can never drift apart.
"""

import json
from pathlib import Path

import pytest

from repro.caching import CompileCache
from repro.models import MODEL_NAMES, build
from repro.runtime.runtime import Device

PINS = Path(__file__).resolve().parents[2] / "hostbench" / "pins.json"
ZOO_PINS = json.loads(PINS.read_text())["zoo"]


def test_pins_cover_the_zoo():
    assert sorted(ZOO_PINS) == sorted(MODEL_NAMES)


@pytest.mark.parametrize("model", sorted(ZOO_PINS))
def test_zoo_launch_matches_pin(model):
    device = Device.open("i20")
    compiled = device.compile(build(model), batch=1, cache=CompileCache())
    result = device.launch(compiled)
    pin = ZOO_PINS[model]
    assert result.latency_ns == pin["latency_ns"]
    assert result.energy_joules == pin["energy_joules"]
