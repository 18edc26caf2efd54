"""Content-addressed compile caching (docs/performance.md)."""

import numpy as np
import pytest

from repro.caching import (
    COMPILE_CACHE,
    CompileCache,
    MeasurementCache,
    export_cache_metrics,
    reset_global_caches,
)
from repro.core.datatypes import DType
from repro.models.zoo import build
from repro.obs import Observability
from repro.runtime.runtime import Device


@pytest.fixture(autouse=True)
def _isolated_caches():
    reset_global_caches()
    yield
    reset_global_caches()


class TestStructuralHash:
    def test_identical_graphs_share_a_hash(self):
        assert build("resnet50").structural_hash() == build("resnet50").structural_hash()

    def test_different_models_differ(self):
        assert build("resnet50").structural_hash() != build("vgg16").structural_hash()

    def test_attr_change_moves_the_hash(self):
        graph = build("resnet50")
        base = graph.structural_hash()
        graph.nodes[0].attrs["extra"] = 1
        assert graph.structural_hash() != base

    def test_shape_binding_moves_the_hash(self):
        from repro.graph.shape_inference import bind_shapes

        graph = build("bert_large")
        assert (
            bind_shapes(graph, batch=1).structural_hash()
            != bind_shapes(graph, batch=4).structural_hash()
        )

    def test_hash_is_hex_sha256(self):
        digest = build("resnet50").structural_hash()
        assert len(digest) == 64
        int(digest, 16)


class TestCompileCache:
    def test_recompile_returns_shared_model(self):
        device = Device.open()
        first = device.compile(build("resnet50"), batch=1)
        second = device.compile(build("resnet50"), batch=1)
        assert second is first
        assert COMPILE_CACHE.stats.hits == 1
        assert COMPILE_CACHE.stats.misses == 1

    def test_dtype_and_bindings_key_separately(self):
        device = Device.open()
        fp16 = device.compile(build("resnet50"), batch=1)
        int8 = device.compile(build("resnet50"), dtype=DType.INT8, batch=1)
        batch4 = device.compile(build("resnet50"), batch=4)
        assert fp16 is not int8
        assert fp16 is not batch4
        assert COMPILE_CACHE.stats.misses == 3

    def test_chip_config_keys_separately(self):
        i20 = Device.open("i20").compile(build("resnet50"), batch=1)
        i10 = Device.open("i10").compile(build("resnet50"), batch=1)
        assert i20 is not i10
        assert COMPILE_CACHE.stats.hits == 0

    def test_fusion_flag_keys_separately(self):
        device = Device.open()
        fused = device.compile(build("resnet50"), batch=1, fusion=True)
        unfused = device.compile(build("resnet50"), batch=1, fusion=False)
        assert fused is not unfused

    def test_cache_false_bypasses(self):
        device = Device.open()
        first = device.compile(build("resnet50"), batch=1, cache=False)
        second = device.compile(build("resnet50"), batch=1, cache=False)
        assert first is not second
        assert COMPILE_CACHE.stats.lookups == 0

    def test_private_cache_leaves_global_untouched(self):
        device = Device.open()
        private = CompileCache()
        device.compile(build("resnet50"), batch=1, cache=private)
        device.compile(build("resnet50"), batch=1, cache=private)
        assert private.stats.hits == 1
        assert COMPILE_CACHE.stats.lookups == 0

    def test_invalidate_forces_rebuild(self):
        device = Device.open()
        graph = build("resnet50")
        compiled = device.compile(graph, batch=1)
        from repro.graph.shape_inference import bind_shapes

        key = CompileCache.key_for(
            bind_shapes(graph, batch=1), device.accelerator.chip, DType.FP16, True
        )
        assert COMPILE_CACHE.invalidate(key)
        assert COMPILE_CACHE.stats.invalidations == 1
        rebuilt = device.compile(graph, batch=1)
        assert rebuilt is not compiled

    def test_clear_empties_and_counts(self):
        device = Device.open()
        device.compile(build("resnet50"), batch=1)
        assert len(COMPILE_CACHE) == 1
        assert COMPILE_CACHE.clear() == 1
        assert len(COMPILE_CACHE) == 0

    def test_capacity_evicts_fifo(self):
        cache = CompileCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_cached_model_launches_identically(self):
        """A cache-hit model behaves exactly like a fresh lowering (fresh
        device per launch so both simulations start at t=0)."""
        priming = Device.open()
        priming.compile(build("resnet50"), batch=1)  # populate the cache

        cold_device = Device.open()
        cold = cold_device.compile(build("resnet50"), batch=1, cache=False)
        latency_cold = cold_device.launch(cold).latency_ns

        warm_device = Device.open()
        warm = warm_device.compile(build("resnet50"), batch=1)
        assert COMPILE_CACHE.stats.hits >= 1
        latency_warm = warm_device.launch(warm).latency_ns
        assert latency_cold == latency_warm

    def test_obs_counters_record_hit_and_miss(self):
        obs = Observability()
        device = Device.open(obs=obs)
        device.compile(build("resnet50"), batch=1)
        device.compile(build("resnet50"), batch=1)
        lookups = obs.metrics.get("compile_cache_lookups_total")
        assert lookups.value(result="miss") == 1
        assert lookups.value(result="hit") == 1


class TestExportCacheMetrics:
    def test_gauges_mirror_stats(self):
        device = Device.open()
        device.compile(build("resnet50"), batch=1)
        device.compile(build("resnet50"), batch=1)
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        export_cache_metrics(registry)
        assert registry.get("cache_hits").value(cache="compile") == 1
        assert registry.get("cache_misses").value(cache="compile") == 1
        assert registry.get("cache_entries").value(cache="compile") == 1
        assert registry.get("cache_hit_rate").value(cache="compile") == 0.5
        assert registry.get("cache_entries").value(cache="measurement") == 0

    def test_export_twice_does_not_double_count(self):
        device = Device.open()
        device.compile(build("resnet50"), batch=1)
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        export_cache_metrics(registry)
        export_cache_metrics(registry)
        assert registry.get("cache_misses").value(cache="compile") == 1


class TestMeasurementCacheUnit:
    def test_key_for_normalizes_groups(self):
        assert MeasurementCache.key_for("m", np.int64(3)) == ("m", 3, "i20")
        assert MeasurementCache.key_for("m", 3, "i10") == ("m", 3, "i10")

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MeasurementCache(capacity=0)
