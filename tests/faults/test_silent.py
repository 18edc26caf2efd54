"""SilentCorruptor: seeded, recorded, never-raising numeric corruption.

The injection contract under test: a corruptor with a zero rate is a
bit-identical no-op that consumes no randomness; a firing corruptor
changes exactly one element, raises nothing, and leaves a
``detected=False`` FaultRecord as its only trace.
"""

import numpy as np
import pytest

from repro.core.datatypes import DType
from repro.dma.sparse import SparseFormat, compress, decompress
from repro.engines.matrix import MatrixEngine
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MantissaBitFlipFault,
    SilentCorruptionFault,
    SilentCorruptor,
)


def _array(seed=0, shape=(4, 8)):
    return np.random.default_rng(seed).standard_normal(shape)


def _corruptor(seed=0, injector=None, **plan):
    return SilentCorruptor(
        plan=FaultPlan(**plan), seed=seed, device="dev0", injector=injector
    )


class TestDetachedPath:
    def test_zero_rate_returns_the_same_object_untouched(self):
        corruptor = _corruptor()
        array = _array()
        before = array.copy()
        out = corruptor.corrupt_gemm(array)
        assert out is array
        np.testing.assert_array_equal(out, before)
        assert corruptor.events == []

    def test_zero_rates_consume_no_randomness(self):
        quiet = _corruptor(seed=5)
        for _ in range(10):
            quiet.corrupt_gemm(_array())
            quiet.corrupt_dma(_array())
            quiet.corrupt_sparse(_array())
        # The stream is still at its origin: a fresh corruptor with the
        # same seed fires the same first draw.
        fresh = _corruptor(seed=5, sdc_gemm_rate=1.0)
        late = _corruptor(seed=5, sdc_gemm_rate=1.0)
        a, b = _array(1), _array(1)
        fresh.corrupt_gemm(a)
        late.corrupt_gemm(b)
        np.testing.assert_array_equal(a, b)

    def test_engine_without_corruptor_is_bit_identical(self):
        a, b = _array(1, (8, 16)), _array(2, (16, 8))
        plain = MatrixEngine(DType.FP32).gemm(a, b)
        attached = MatrixEngine(DType.FP32, corruptor=_corruptor()).gemm(a, b)
        np.testing.assert_array_equal(plain, attached)


class TestInjection:
    def test_certain_rate_corrupts_exactly_one_element(self):
        corruptor = _corruptor(sdc_gemm_rate=1.0)
        array = _array()
        before = array.copy()
        corruptor.corrupt_gemm(array)
        changed = np.flatnonzero(array.reshape(-1) != before.reshape(-1))
        assert changed.size == 1
        event = corruptor.events[0]
        assert event.site == "gemm"
        assert int(changed[0]) == event.index
        assert array.reshape(-1)[event.index] == event.corrupted
        assert np.isfinite(event.corrupted)

    def test_same_seed_reproduces_the_same_corruption(self):
        first, second = _array(3), _array(3)
        _corruptor(seed=9, sdc_gemm_rate=1.0).corrupt_gemm(first)
        _corruptor(seed=9, sdc_gemm_rate=1.0).corrupt_gemm(second)
        np.testing.assert_array_equal(first, second)

    def test_all_three_sites_fire_their_own_rates(self):
        corruptor = _corruptor(
            sdc_gemm_rate=1.0, sdc_dma_rate=1.0, sdc_sparse_rate=1.0
        )
        corruptor.corrupt_gemm(_array(1))
        corruptor.corrupt_dma(_array(2))
        corruptor.corrupt_sparse(_array(3))
        assert [e.site for e in corruptor.events] == ["gemm", "dma", "sparse"]

    def test_mantissa_mode_keeps_the_error_honestly_detectable(self):
        corruptor = _corruptor(sdc_gemm_rate=1.0)
        array = _array(4)
        corruptor.corrupt_gemm(array)
        event = corruptor.events[0]
        relative = abs(event.corrupted - event.original) / abs(event.original)
        assert relative >= 2.0 ** -13  # bits 40..51 of the 52-bit mantissa
        assert isinstance(event.fault, MantissaBitFlipFault)
        assert isinstance(event.fault, SilentCorruptionFault)

    def test_defective_core_attribution_is_plan_pinned(self):
        corruptor = _corruptor(sdc_gemm_rate=1.0, sdc_cores=(3,))
        for seed in range(4):
            corruptor.corrupt_gemm(_array(seed))
        assert all(event.core == 3 for event in corruptor.events)

    def test_all_zero_array_fires_no_event(self):
        corruptor = _corruptor(sdc_gemm_rate=1.0)
        array = np.zeros((4, 4))
        corruptor.corrupt_gemm(array)
        np.testing.assert_array_equal(array, np.zeros((4, 4)))
        assert corruptor.events == []


class TestInjectorLedger:
    def test_records_land_undetected_with_device_identity(self):
        injector = FaultInjector(FaultPlan(), seed=0, device="dev0")
        corruptor = _corruptor(injector=injector, sdc_gemm_rate=1.0)
        corruptor.corrupt_gemm(_array(), time_ns=42.0)
        (record,) = injector.records
        assert record.kind == "sdc.gemm"
        assert record.detected is False and record.method == ""
        assert record.recovered is False
        assert record.device == "dev0"
        assert injector.counters()["faults_silent"] == 1.0
        assert injector.counters()["faults_fatal"] == 0.0  # nothing raised

    def test_mark_detected_drains_the_silent_backlog(self):
        injector = FaultInjector(FaultPlan(), seed=0)
        corruptor = _corruptor(injector=injector, sdc_gemm_rate=1.0)
        corruptor.corrupt_gemm(_array())
        (event,) = corruptor.undetected
        corruptor.mark_detected(event, "abft")
        assert corruptor.undetected == []
        assert injector.silent_records == []
        (record,) = injector.records
        assert record.detected is True and record.method == "abft"
        assert "faults_silent" not in injector.counters()


class TestSparseCodecSite:
    @staticmethod
    def _dense():
        # The codec's wire format is float32; feed it native elements so
        # the detached roundtrip is exact.
        dense = _array(7, (8, 8)).astype(np.float32)
        dense[dense < 0.5] = 0.0
        return dense

    def test_detached_decompress_roundtrips_exactly(self):
        dense = self._dense()
        compressed = compress(dense, SparseFormat.BITMASK)
        np.testing.assert_array_equal(decompress(compressed), dense)

    def test_corrupted_decompress_differs_in_one_element(self):
        dense = self._dense()
        compressed = compress(dense, SparseFormat.BITMASK)
        corruptor = _corruptor(sdc_sparse_rate=1.0)
        out = decompress(compressed, corruptor=corruptor)
        diffs = np.flatnonzero(out.reshape(-1) != dense.reshape(-1))
        assert diffs.size == 1
        assert corruptor.events[0].site == "sparse"
