"""The launch plan: built once per (model, chip, group count), device-free."""

import gc
import weakref

import pytest

from repro.caching import CompileCache
from repro.core.errors import ReproRuntimeError
from repro.models import build
from repro.runtime.executor import (
    ComputeThroughputError,
    LaunchPlan,
    kernel_compute_ns,
    launch_plan,
)
from repro.runtime.runtime import Device

from tests.runtime.test_executor_internals import _kernel


@pytest.fixture(scope="module")
def compiled():
    device = Device.open("i20")
    return device.compile(build("resnet50"), batch=1, cache=CompileCache())


def test_one_plan_per_group_count_shared_across_devices(compiled):
    first = Device.open("i20")
    second = Device.open("i20")
    baseline = first.launch(compiled, num_groups=2)
    plan = compiled.launch_plans[2][0]
    again = second.launch(compiled, num_groups=2)
    assert compiled.launch_plans[2] == [plan]
    assert again.latency_ns == baseline.latency_ns
    assert again.energy_joules == baseline.energy_joules
    first.launch(compiled, num_groups=3)
    assert len(compiled.launch_plans[3]) == 1


def test_plan_keeps_no_device_alive(compiled):
    device = Device.open("i20")
    device.launch(compiled, num_groups=3)
    card = weakref.ref(device.accelerator)
    del device
    gc.collect()
    assert compiled.launch_plans[3]  # the plan outlives the card
    assert card() is None


def test_plan_compute_matches_the_formula(compiled):
    chip = Device.open("i20").accelerator.chip
    plan = launch_plan(compiled, chip, 2)
    assert isinstance(plan, LaunchPlan)
    for clock in (1.0, 1.4):
        for index, step in enumerate(plan.steps):
            expected = kernel_compute_ns(
                chip, step.kernel, chip.cores_per_group, clock, 2
            )
            assert plan.compute_ns(index, clock) == expected
    # memoised: the second lookup is the stored float
    assert plan.compute_ns(0, 1.4) is plan.compute_ns(0, 1.4)


def test_zero_throughput_raises_typed_error():
    chip = Device.open("i20").accelerator.chip
    with pytest.raises(ComputeThroughputError, match="zero compute throughput"):
        kernel_compute_ns(chip, _kernel(), cores=4, clock_ghz=0.0)
    assert issubclass(ComputeThroughputError, ReproRuntimeError)
    assert issubclass(ComputeThroughputError, RuntimeError)
