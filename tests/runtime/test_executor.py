"""Unit tests for the event-driven executor on the simulated accelerator."""

import pytest

from repro.core.accelerator import Accelerator
from repro.core.config import FeatureFlags
from repro.graph.builder import GraphBuilder
from repro.runtime.executor import Executor
from repro.runtime.runtime import Device


def _tiny_graph():
    builder = GraphBuilder("tiny")
    x = builder.input("x", (1, 8, 32, 32))
    y = builder.conv2d(x, 16, 3, pad=1)
    y = builder.batch_norm(y)
    y = builder.relu(y)
    y = builder.conv2d(y, 16, 3, pad=1)
    y = builder.relu(y)
    return builder.finish([y])


@pytest.fixture
def device():
    return Device.open("i20")


@pytest.fixture
def compiled(device):
    return device.compile(_tiny_graph())


class TestExecution:
    def test_run_produces_positive_latency_and_energy(self, device, compiled):
        result = device.launch(compiled, num_groups=3)
        assert result.latency_ns > 0
        assert result.energy_joules > 0
        assert 0 < result.mean_power_watts < 150.0

    def test_one_timing_per_kernel(self, device, compiled):
        result = device.launch(compiled, num_groups=3)
        assert len(result.kernel_timings) == len(compiled.kernels)

    def test_timings_are_ordered_and_disjoint(self, device, compiled):
        result = device.launch(compiled, num_groups=3)
        timings = result.kernel_timings
        for before, after in zip(timings, timings[1:]):
            assert after.start_ns >= before.end_ns - 1e-6

    def test_more_groups_is_faster_for_large_work(self):
        # Needs enough work per kernel that the extra sync/broadcast of a
        # 6-group split is amortized (tiny kernels legitimately prefer
        # fewer groups — that is the Fig. 7 sizing policy).
        builder = GraphBuilder("big")
        x = builder.input("x", (1, 64, 128, 128))
        y = builder.conv2d(x, 128, 3, pad=1)
        y = builder.relu(y)
        y = builder.conv2d(y, 128, 3, pad=1)
        graph = builder.finish([y])
        one = Device.open("i20")
        six = Device.open("i20")
        result_one = one.launch(one.compile(graph), num_groups=1, tenant="a")
        result_six = six.launch(six.compile(graph), num_groups=6, tenant="b")
        assert result_six.latency_ns < result_one.latency_ns

    def test_icache_prefetch_covers_all_but_first(self, device, compiled):
        result = device.launch(compiled, num_groups=1)
        assert result.counters["icache_misses"] == 1
        assert result.counters["icache_prefetch_hits"] == len(compiled.kernels) - 1

    def test_resources_released_after_run(self, device, compiled):
        device.launch(compiled, num_groups=6)
        assert len(device.accelerator.resources.free_groups()) == 6

    def test_sparse_dma_reduces_wire_bytes(self):
        from repro.models import build

        dense_dev = Device(
            Accelerator.cloudblazer_i20(FeatureFlags(sparse_dma=False))
        )
        sparse_dev = Device(Accelerator.cloudblazer_i20())
        graph = build("resnet50")
        dense = dense_dev.launch(dense_dev.compile(graph, batch=1), num_groups=3)
        sparse = sparse_dev.launch(sparse_dev.compile(graph, batch=1), num_groups=3)
        assert sparse.counters["dma_wire_bytes"] < dense.counters["dma_wire_bytes"]

    def test_dvfs_disabled_runs_at_max_clock(self):
        accelerator = Accelerator.cloudblazer_i20(
            FeatureFlags(power_management=False)
        )
        device = Device(accelerator)
        result = device.launch(device.compile(_tiny_graph()), num_groups=3)
        assert result.mean_frequency_ghz == pytest.approx(1.4)

    def test_custom_window_size(self, device, compiled):
        executor = Executor(device.accelerator, window_ns=5_000.0)
        result = executor.run(compiled, num_groups=3)
        assert result.latency_ns > 0


class TestDeviceApi:
    def test_runtime_reexports_repro_runtime_error(self):
        from repro.core.errors import ReproRuntimeError
        from repro.runtime import runtime

        assert runtime.ReproRuntimeError is ReproRuntimeError
        assert issubclass(ReproRuntimeError, RuntimeError)

    def test_open_by_name(self):
        assert Device.open("i20").accelerator.chip.name == "DTU 2.0"
        assert Device.open("i10").accelerator.chip.name == "DTU 1.0"

    def test_open_unknown_rejected(self):
        from repro.runtime.runtime import ReproRuntimeError

        with pytest.raises(ReproRuntimeError):
            Device.open("gtx1080")

    def test_malloc_free_accounting(self, device):
        device.malloc("activations", 1 << 20)
        assert device.memory_in_use == 1 << 20
        device.free("activations")
        assert device.memory_in_use == 0

    def test_compile_requires_bound_shapes(self, device):
        from repro.models import build
        from repro.runtime.runtime import ReproRuntimeError

        with pytest.raises(ReproRuntimeError):
            device.compile(build("resnet50"))  # symbolic batch unbound

    def test_compile_binds_shapes(self, device):
        from repro.models import build

        compiled = device.compile(build("resnet50"), batch=2)
        assert compiled.total_flops > 0

    def test_launch_auto_sizes_groups(self, device, compiled):
        result = device.launch(compiled)  # Fig. 7 recommendation path
        assert result.latency_ns > 0

    def test_run_convenience(self, device):
        result = device.run(_tiny_graph())
        assert result.latency_ns > 0


class TestProfiler:
    def test_category_breakdown(self, device, compiled):
        from repro.runtime.profiler import Profile

        result = device.launch(compiled, num_groups=3)
        profile = Profile(compiled, result)
        stats = profile.by_category()
        assert stats
        assert sum(stat.time_share for stat in stats) == pytest.approx(1.0)
        assert sum(stat.flops_share for stat in stats) == pytest.approx(1.0)

    def test_dense_share_high_for_conv_net(self, device, compiled):
        from repro.runtime.profiler import Profile

        result = device.launch(compiled, num_groups=3)
        profile = Profile(compiled, result)
        assert profile.dense_flops_share() > 0.9

    def test_slowest_kernels_sorted(self, device, compiled):
        from repro.runtime.profiler import Profile

        result = device.launch(compiled, num_groups=3)
        slowest = Profile(compiled, result).slowest_kernels(3)
        durations = [duration for _name, duration in slowest]
        assert durations == sorted(durations, reverse=True)

    def test_summary_renders(self, device, compiled):
        from repro.runtime.profiler import Profile

        result = device.launch(compiled, num_groups=3)
        text = Profile(compiled, result).summary()
        assert "ms" in text and "conv" in text
