"""Focused unit tests for the executor's timing/traffic arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.kernel import Kernel, KernelCost
from repro.core.accelerator import Accelerator
from repro.core.config import FeatureFlags
from repro.core.datatypes import DType
from repro.runtime.executor import kernel_compute_ns, kernel_wire_bytes

MB = 1 << 20


def _kernel(flops=1e9, sparsity=0.0, category="conv"):
    return Kernel(
        name="k",
        category=category,
        dtype=DType.FP16,
        cost=KernelCost(
            flops=flops, input_bytes=4 * MB, output_bytes=2 * MB,
            weight_bytes=1 * MB,
        ),
        code_bytes=8192,
        sparsity=sparsity,
    )


@pytest.fixture
def chip():
    return Accelerator.cloudblazer_i20().chip


class TestComputeTime:
    def test_scales_inversely_with_clock(self, chip):
        fast = kernel_compute_ns(chip, _kernel(), cores=4, clock_ghz=1.4)
        slow = kernel_compute_ns(chip, _kernel(), cores=4, clock_ghz=0.7)
        assert slow == pytest.approx(2 * fast)

    def test_scales_inversely_with_groups(self, chip):
        one = kernel_compute_ns(chip, _kernel(), cores=4, clock_ghz=1.4,
                                num_groups=1)
        six = kernel_compute_ns(chip, _kernel(), cores=4, clock_ghz=1.4,
                                num_groups=6)
        assert six == pytest.approx(one / 6)

    def test_zero_flops_is_free(self, chip):
        assert kernel_compute_ns(chip, _kernel(flops=0), 4, 1.4) == 0.0

    def test_tensorization_utilization_slows(self, chip):
        from repro.compiler.tensorize import GemmShape, tensorize_gemm

        kernel = _kernel()
        kernel.tensorization = tensorize_gemm(
            GemmShape(m=100, n=3, k=5), DType.FP16, fine_grained=False
        )
        with_util = kernel_compute_ns(chip, kernel, 4, 1.4)
        kernel.tensorization = None
        without = kernel_compute_ns(chip, kernel, 4, 1.4)
        assert with_util > without


class TestWireBytes:
    def test_dense_kernel_unchanged(self, chip):
        assert kernel_wire_bytes(chip, _kernel(), 4 * MB) == 4 * MB

    def test_sparse_kernel_compressed(self, chip):
        wire = kernel_wire_bytes(chip, _kernel(sparsity=0.5), 4 * MB)
        # 50 % kept + 1/16 mask overhead
        assert wire == pytest.approx(4 * MB * (0.5 + 1 / 16), rel=0.01)

    def test_feature_off_disables_compression(self):
        chip = Accelerator.cloudblazer_i20(FeatureFlags(sparse_dma=False)).chip
        assert kernel_wire_bytes(chip, _kernel(sparsity=0.9), 4 * MB) == 4 * MB

    def test_never_expands(self, chip):
        barely = kernel_wire_bytes(chip, _kernel(sparsity=0.01), 4 * MB)
        assert barely <= 4 * MB

    @settings(max_examples=30, deadline=None)
    @given(sparsity=st.floats(0.0, 1.0), nbytes=st.integers(1, 64 * MB))
    def test_property_wire_bytes_bounded(self, sparsity, nbytes):
        chip = Accelerator.cloudblazer_i20().chip
        wire = kernel_wire_bytes(chip, _kernel(sparsity=sparsity), nbytes)
        assert 0 <= wire <= nbytes


class TestKernelTimingInvariants:
    def test_timeline_well_formed(self):
        from repro.graph.builder import GraphBuilder
        from repro.runtime.runtime import Device

        builder = GraphBuilder("g")
        x = builder.input("x", (1, 8, 32, 32))
        y = builder.conv2d(x, 16, 3, pad=1)
        y = builder.relu(y)
        y = builder.conv2d(y, 16, 3, pad=1)
        graph = builder.finish([y])
        device = Device.open("i20")
        result = device.launch(device.compile(graph), num_groups=2)
        for timing in result.kernel_timings:
            assert timing.end_ns > timing.start_ns
            assert timing.compute_ns >= 0
            assert timing.dma_ns >= 0
            assert timing.sync_ns >= 0
            assert timing.duration_ns >= timing.compute_ns - 1e-6
            assert 1.0 <= timing.clock_ghz <= 1.4
