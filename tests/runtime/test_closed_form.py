"""The closed-form launch against the event path it replaces, bit for bit.

A single-job launch with no fault that could fire computes its kernel
steps directly (``repro.runtime.executor._ClosedFormLaunch``); every other
launch runs the per-group processes. The event path is the oracle: each
test runs the same launch twice on fresh cards, once as the executor
chooses and once with the closed form substituted away, and requires
everything the launch leaves behind to be equal: the result, every
kernel timing and trace interval in order, the power manager's samples,
DVFS and CPME/LPME state, the clock, and each group's icache, DMA, sync
and memory state. With an observability hub attached the spans and the
metrics must match too, bar the event-core gauges that count the work the
closed form does not do.
"""

from __future__ import annotations

import importlib.util
import math
import random
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.compiler.kernel import Kernel, KernelCost
from repro.compiler.lowering import CompiledModel
from repro.core.accelerator import Accelerator
from repro.core.config import FeatureFlags, dtu2_config
from repro.core.datatypes import DType
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import RATE_FIELDS
from repro.models.zoo import build
from repro.obs import Observability
from repro.obs.exporters import to_json_snapshot
from repro.runtime.executor import Executor, kernel_compute_ns
from repro.runtime.runtime import Device

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "launch_golden", REPO_ROOT / "tools" / "launch_golden.py"
)
launch_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(launch_golden)

#: gauges over work the closed form skips: dispatches and clock steps
ENGINE_GAUGES = {"sim_events_dispatched", "sim_time_steps"}


@pytest.fixture
def event_path(monkeypatch):
    """Substitute the closed form away: every launch runs the event path."""

    def substitute():
        monkeypatch.setattr(
            Executor, "_closed_form_applies", lambda self, jobs, groups: False
        )

    return substitute


def state(accelerator, executor, result) -> dict:
    """Everything a launch leaves behind, as comparable plain data."""
    cpme = accelerator.cpme
    groups = []
    for group in accelerator.groups:
        icache = group.icaches[0]
        groups.append({
            "icache": (
                icache.hits, icache.misses, icache.prefetch_hits,
                list(icache._resident.items()),
                sorted(icache._prefetch_done_at.items()),
            ),
            "dma": asdict(group.dma.stats),
            "sync": asdict(group.sync.stats),
            "l2": (group.l2.level.bytes_transferred, group.l2.level.ports.in_use),
        })
    return {
        "observed": launch_golden.observe(accelerator, result),
        "latency_ns": result.latency_ns,
        "energy_joules": result.energy_joules,
        "power": (executor._power_samples, executor._power_timeline),
        "clock": accelerator.clock_ghz,
        "dvfs": (accelerator.dvfs.f_ghz, list(accelerator.dvfs._history)),
        "cpme": (
            cpme.grants_issued, cpme.grants_denied, cpme.recaps,
            cpme._ledger_reserve,
        ),
        "lpmes": [
            (
                lpme.budget_watts, tuple(lpme.history), lpme.stall_time_total,
                lpme.windows_observed,
            )
            for lpme in cpme.lpmes.values()
        ],
        "l3": (accelerator.l3.bytes_transferred, accelerator.l3.ports.in_use),
        "groups": groups,
        "queue": list(accelerator.sim._queue),
    }


def launch_cell(model, name, power, groups, injector=None):
    accelerator = launch_golden.card(name, power)
    device = Device(accelerator, device_id=f"{name}-oracle")
    compiled = device.compile(build(model), batch=1)
    if injector is not None:
        accelerator.attach_faults(injector)
    executor = Executor(accelerator)
    result = executor.run(compiled, num_groups=groups)
    return state(accelerator, executor, result), dict(accelerator.launch_paths)


CELLS = list(launch_golden.grid())


@pytest.mark.parametrize(
    "model", sorted({cell[0] for cell in CELLS})
)
def test_closed_form_matches_the_event_path_on_every_golden_cell(
    model, event_path
):
    cells = [cell for cell in CELLS if cell[0] == model]
    closed = [launch_cell(*cell) for cell in cells]
    event_path()
    for cell, (computed, paths) in zip(cells, closed):
        expected, event_paths = launch_cell(*cell)
        assert (paths, event_paths) == ({"closed_form": 1}, {"event": 1})
        assert computed == expected, cell


def hub_launch(model, groups, plan):
    obs = Observability()
    device = Device.open("i20", obs=obs, device_id="i20-hub")
    device.accelerator.attach_faults(FaultInjector(plan))
    compiled = device.compile(build(model), batch=1)
    result = device.launch(compiled, num_groups=groups)
    snapshot = to_json_snapshot(obs)
    snapshot["metrics"] = [
        entry for entry in snapshot["metrics"]
        if entry["name"] not in ENGINE_GAUGES
    ]
    observed = (
        result.latency_ns, result.energy_joules, result.counters,
        [asdict(timing) for timing in result.kernel_timings], snapshot,
    )
    return observed, dict(device.accelerator.launch_paths)


@pytest.mark.parametrize(
    "model,groups", [("resnet50", 3), ("bert_large", 2), ("yolo_v3", 1)]
)
def test_zero_rate_injector_with_a_hub_matches_the_event_path(
    model, groups, event_path
):
    quiet = FaultPlan(seed=11)
    closed, paths = hub_launch(model, groups, quiet)
    assert paths == {"closed_form": 1}
    event_path()
    assert (closed, {"event": 1}) == hub_launch(model, groups, quiet)


@pytest.mark.parametrize("rate", RATE_FIELDS)
def test_a_plan_that_can_fire_takes_the_event_path(rate):
    accelerator = launch_golden.card("i20", "pm-on")
    device = Device(accelerator, device_id="i20-faulty")
    compiled = device.compile(build("resnet50"), batch=1)
    accelerator.attach_faults(FaultInjector(FaultPlan(seed=0, **{rate: 1e-9})))
    device.launch(compiled, num_groups=2)
    assert accelerator.launch_paths == {"event": 1}


def test_several_jobs_take_the_event_path():
    accelerator = launch_golden.card("i20", "pm-on")
    device = Device(accelerator, device_id="i20-tenants")
    compiled = device.compile(build("resnet50"), batch=1)
    resources = accelerator.resources
    jobs = {
        tenant: (compiled, resources.assign(tenant, 2)) for tenant in "ab"
    }
    Executor(accelerator).run_concurrent(jobs)
    assert accelerator.launch_paths == {"event": 1}


# -- ties ---------------------------------------------------------------------
#
# Zoo launches almost never put two wakeups at one instant outside the
# lockstep of symmetric groups. These synthetic launches do so on purpose:
# every latency, bandwidth and byte count is chosen so that transfer,
# icache, configuration, sync and compute times are small integers, and
# the power windows are short multiples of the same unit. L3 requests tie
# with releases, DMA reads with their writes, compute timers with DMA
# completions, barrier arrivals with each other and records with window
# boundaries, so every tie rule of the event queue is exercised.


def tie_chip(power_management: bool):
    chip = dtu2_config(FeatureFlags(power_management=power_management))
    return replace(
        chip,
        l2_per_group=replace(chip.l2_per_group, bandwidth_gbps=2.0, latency_ns=4.0),
        l3=replace(chip.l3, bandwidth_gbps=24.0, latency_ns=8.0),
        dma_config_overhead_ns=16.0,
        sync_latency_ns=8.0,
    )


def exact_flops(chip, kernel, groups, target):
    """FLOPs that make ``kernel`` compute for exactly ``target`` ns."""
    clock = chip.max_clock_ghz
    cores = chip.cores_per_group
    flops = target * groups * chip.core_flops_per_ns(kernel.dtype, clock) * cores
    flops *= 0.5  # the "sort" category's efficiency
    for _ in range(64):
        kernel.cost = replace(kernel.cost, flops=flops)
        got = kernel_compute_ns(chip, kernel, cores, clock, groups)
        if got == target:
            return
        flops = math.nextafter(flops, math.inf if got < target else 0.0)
    raise AssertionError(f"no exact FLOP count for {target} ns")


def tie_model(chip, seed: int, groups: int) -> CompiledModel:
    rng = random.Random(seed)
    kernels = []
    for index in range(16):
        kernel = Kernel(
            name=f"k{index % 12}",  # repeated names, like fused zoo kernels
            category="sort",
            dtype=DType.FP16,
            cost=KernelCost(
                flops=0.0,
                input_bytes=144 * rng.choice((0, 1, 2, 5)),
                output_bytes=144 * rng.choice((0, 1, 3)),
                weight_bytes=24 * rng.choice((0, 1, 4)),
            ),
            code_bytes=rng.choice((24, 48, 96, 240)),
            tiling=SimpleNamespace(dma_configurations=rng.choice((1, 1, 2))),
        )
        target = rng.choice((0, 0, 8, 16, 24, 32, 48, 64, 96))
        if target:
            exact_flops(chip, kernel, groups, target)
        kernels.append(kernel)
    return CompiledModel(name=f"ties{seed}", kernels=kernels, dtype=DType.FP16, chip=chip)


def tie_launches(seed, power_management, window_ns, group_counts):
    chip = tie_chip(power_management)
    accelerator = Accelerator(chip=chip)
    out = []
    for position, groups in enumerate(group_counts):
        model = tie_model(chip, seed + position, groups)
        executor = Executor(accelerator, window_ns=window_ns)
        result = executor.run(model, num_groups=groups)
        out.append(state(accelerator, executor, result))
    return out, dict(accelerator.launch_paths)


@pytest.mark.parametrize("seed", range(6))
def test_tied_wakeups_resolve_as_on_the_event_path(seed, event_path):
    rng = random.Random(seed)
    window_ns = rng.choice((8.0, 16.0, 24.0, 40.0, 48.0, 96.0))
    power_management = seed % 2 == 0
    group_counts = [rng.choice((1, 2, 3, 6)) for _ in range(4)]
    closed, paths = tie_launches(seed, power_management, window_ns, group_counts)
    assert paths == {"closed_form": 4}
    event_path()
    assert (closed, {"event": 4}) == tie_launches(
        seed, power_management, window_ns, group_counts
    )
