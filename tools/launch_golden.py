"""Record the launch golden: one detailed-simulator launch per grid cell.

The grid covers the executor's launch space for the paper's models:

- every Table III zoo model, compiled at batch 1, FP16, default fusion;
- on the i20 (DTU 2.0): 1, 2, 3 and 6 processing groups, with power
  management (the CPME/LPME + DVFS loop) on and off;
- on the i10 (DTU 1.0, no power management): 1, 2 and 4 groups.

Each cell launches once on a fresh card. It keeps the latency and energy
in clear, plus one sha256 over everything else the launch decided: every
``KernelTiming``, the ordered trace intervals, the result counters, mean
power and frequency, every DVFS decision and the simulator clock after
the launch. Floats are written with ``repr``, so a digest moves on any
bit of any number.

Rewrite the file with ``PYTHONPATH=src python tools/launch_golden.py``
(``-o PATH`` writes elsewhere); ``tests/runtime/test_launch_golden.py``
holds the executor to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "runtime" / "data" / "launch_golden.json"
)

#: (card, power management, group counts)
CARDS = (
    ("i20", "pm-on", (1, 2, 3, 6)),
    ("i20", "pm-off", (1, 2, 3, 6)),
    ("i10", "pm-off", (1, 2, 4)),
)


def card(name: str, power: str):
    """A fresh accelerator for one cell."""
    from repro.core.accelerator import Accelerator
    from repro.core.config import FeatureFlags, dtu2_config

    if name == "i20" and power == "pm-off":
        return Accelerator(chip=dtu2_config(FeatureFlags(power_management=False)))
    return Accelerator.by_name(name)


def grid():
    """Every cell as ``(model, card, power, groups)``."""
    from repro.models.zoo import MODEL_NAMES

    for model in MODEL_NAMES:
        for name, power, group_counts in CARDS:
            for groups in group_counts:
                yield model, name, power, groups


def cell_key(model: str, name: str, power: str, groups: int) -> str:
    return f"{model}/{name}/{power}/g{groups}"


def observe(accelerator, result) -> dict:
    """What one launch decided, as plain JSON-able data."""
    return {
        "kernel_timings": [
            [
                timing.name, timing.category, timing.start_ns, timing.end_ns,
                timing.compute_ns, timing.dma_ns, timing.icache_stall_ns,
                timing.sync_ns, timing.clock_ghz,
            ]
            for timing in result.kernel_timings
        ],
        "intervals": [
            [interval.engine, interval.label, interval.start, interval.end,
             interval.seq]
            for interval in accelerator.trace.intervals
        ],
        "counters": result.counters,
        "mean_power_watts": result.mean_power_watts,
        "mean_frequency_ghz": result.mean_frequency_ghz,
        "dvfs": [
            [decision.kind.value, decision.f_ghz, decision.changed,
             decision.forced]
            for decision in accelerator.dvfs.decisions
        ],
        "sim_now": accelerator.sim.now,
    }


def digest(observed: dict) -> str:
    text = json.dumps(observed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def launch(model: str, name: str, power: str, groups: int):
    """Compile and launch one cell on a fresh card: ``(accelerator, result)``."""
    from repro.models.zoo import build
    from repro.runtime.runtime import Device

    accelerator = card(name, power)
    device = Device(accelerator, device_id=f"{name}-golden")
    result = device.launch(
        device.compile(build(model), batch=1), num_groups=groups
    )
    return accelerator, result


def cells() -> dict[str, dict]:
    out: dict[str, dict] = {}
    for model, name, power, groups in grid():
        accelerator, result = launch(model, name, power, groups)
        out[cell_key(model, name, power, groups)] = {
            "latency_ns": result.latency_ns,
            "energy_joules": result.energy_joules,
            "sha256": digest(observe(accelerator, result)),
        }
    return out


def render() -> str:
    return json.dumps(cells(), indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", type=Path, default=GOLDEN)
    args = parser.parse_args()
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(render())
