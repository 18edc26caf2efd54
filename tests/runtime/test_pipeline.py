"""Tests for pipeline (layer-wise) parallelism."""

import pytest

from repro.core.accelerator import Accelerator
from repro.models import build
from repro.runtime.executor import Executor, kernel_compute_ns
from repro.runtime.pipeline import PipelineError, PipelineExecutor, partition_stages
from repro.runtime.runtime import Device


def _setup(model="resnet50"):
    accelerator = Accelerator.cloudblazer_i20()
    device = Device(accelerator)
    compiled = device.compile(build(model), batch=1)
    return accelerator, compiled


class TestPartitioning:
    def test_ranges_cover_all_kernels_contiguously(self):
        accelerator, compiled = _setup()
        ranges = partition_stages(compiled, Executor(accelerator), 3, 2)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(compiled.kernels)
        for (first_lo, first_hi), (second_lo, _stop) in zip(ranges, ranges[1:]):
            assert first_hi == second_lo
            assert first_hi > first_lo

    def test_stage_count_respected(self):
        accelerator, compiled = _setup()
        for stages in (1, 2, 3, 6):
            ranges = partition_stages(compiled, Executor(accelerator), stages, 1)
            assert len(ranges) == stages

    def test_balance_is_reasonable(self):
        accelerator, compiled = _setup()
        executor = Executor(accelerator)
        ranges = partition_stages(compiled, executor, 3, 2)
        chip = accelerator.chip
        costs = [
            kernel_compute_ns(chip, kernel, chip.cores_per_group, 1.4, 2)
            for kernel in compiled.kernels
        ]
        stage_costs = [sum(costs[lo:hi]) for lo, hi in ranges]
        assert max(stage_costs) < 3 * (sum(costs) / 3)

    def test_too_many_stages_rejected(self):
        accelerator, compiled = _setup()
        with pytest.raises(PipelineError):
            partition_stages(
                compiled, Executor(accelerator), len(compiled.kernels) + 1, 1
            )


class TestPipelineExecution:
    def test_requests_all_complete(self):
        accelerator, compiled = _setup()
        result = PipelineExecutor(accelerator).run(
            compiled, num_stages=3, requests=4
        )
        assert result.requests == 4
        assert result.makespan_ns > result.first_latency_ns > 0

    def test_streaming_amortizes(self):
        """Steady-state interval must be well below the first latency."""
        accelerator, compiled = _setup()
        result = PipelineExecutor(accelerator).run(
            compiled, num_stages=3, requests=8
        )
        assert result.steady_interval_ns < 0.8 * result.first_latency_ns

    def test_throughput_beats_serial_data_parallel(self):
        accelerator, compiled = _setup()
        pipelined = PipelineExecutor(accelerator).run(
            compiled, num_stages=3, requests=8
        )
        device = Device.open("i20")
        serial = device.launch(
            device.compile(build("resnet50"), batch=1), num_groups=6
        )
        serial_throughput = 1e9 / serial.latency_ns
        assert pipelined.throughput_per_s > serial_throughput

    def test_resources_released_after_run(self):
        accelerator, compiled = _setup()
        PipelineExecutor(accelerator).run(compiled, num_stages=2, requests=2)
        assert len(accelerator.resources.free_groups()) == 6

    def test_single_stage_degenerates_to_serial(self):
        accelerator, compiled = _setup()
        result = PipelineExecutor(accelerator).run(
            compiled, num_stages=1, requests=2
        )
        assert result.makespan_ns > 0

    def test_invalid_parameters(self):
        accelerator, compiled = _setup()
        with pytest.raises(PipelineError):
            PipelineExecutor(accelerator).run(compiled, num_stages=7, requests=1)
        with pytest.raises(PipelineError):
            PipelineExecutor(accelerator).run(compiled, num_stages=2, requests=0)
