"""Fusion equivalence guard: honest fusions pass, doctored fused kernels
trigger auto-fallback bit-identical to compiling with fusion disabled."""

import warnings

import numpy as np
import pytest

from repro.compiler.pipeline import compile_graph
from repro.core.config import dtu2_config
from repro.core.datatypes import DType
from repro.graph.builder import GraphBuilder
from repro.graph.equivalence import verify_fused_graph
from repro.graph.ir import Node
from repro.graph.passes import optimize
from repro.graph.reference import ReferenceExecutor
from repro.obs import Observability


def _cnn():
    builder = GraphBuilder("guarded")
    data = builder.input("x", (1, 3, 8, 8))
    out = builder.conv2d(data, 8, kernel=3, pad=1, name="conv0")
    out = builder.batch_norm(out, name="bn0")
    out = builder.relu(out, name="act0")
    out = builder.dense(builder.flatten(out), 10, name="head")
    return builder.finish(outputs=[out])


@pytest.fixture
def doctored_fused_op(monkeypatch):
    """Make every fused group mis-compute: a compiler bug in effigy."""

    def _wrong(self, node, operands):
        scratch = dict(zip(node.inputs, operands))
        from repro.graph.fusion import fused_members

        for member in fused_members(node):
            self._evaluate(member, scratch)
        return tuple(scratch[name] * 1.5 + 0.25 for name in node.outputs)

    monkeypatch.setattr(ReferenceExecutor, "_op_fused", _wrong)


class TestGuardHonest:
    def test_real_fusions_verify_ok(self):
        optimized, _report = optimize(_cnn(), fusion=True)
        assert any(node.op_type == "fused" for node in optimized.nodes)
        report = verify_fused_graph(optimized, seed=0)
        assert report.ok
        assert report.checks
        assert all(check.result == "ok" for check in report.checks)
        assert all(check.max_abs_error == 0.0 for check in report.checks)

    def test_counters_on_ok(self):
        obs = Observability()
        optimized, _report = optimize(_cnn(), fusion=True)
        report = verify_fused_graph(optimized, seed=0, obs=obs)
        counter = obs.metrics.get("fusion_guard_checks_total")
        assert counter.value(result="ok") == len(report.checks)

    def test_compile_with_guard_keeps_fusion(self):
        result = compile_graph(
            _cnn(), dtu2_config(), dtype=DType.FP16, verify_fusion=True
        )
        assert result.guard is not None and result.guard.ok
        assert not result.fell_back
        assert result.model.fusion_groups > 0

    def test_symbolic_groups_skip_not_fail(self):
        builder = GraphBuilder("sym")
        data = builder.input("x", ("batch", 8))
        out = builder.dense(data, 8, name="fc0")
        out = builder.relu(out, name="act0")
        graph = builder.finish(outputs=[out])
        optimized, _report = optimize(graph, fusion=True)
        report = verify_fused_graph(optimized, seed=0)
        assert report.ok
        assert all(check.result == "skipped" for check in report.checks)


class TestGuardFallback:
    def test_mismatch_detected(self, doctored_fused_op):
        optimized, _report = optimize(_cnn(), fusion=True)
        report = verify_fused_graph(optimized, seed=0)
        assert not report.ok
        assert report.mismatches

    def test_fallback_bit_identical_to_fusion_disabled(
        self, doctored_fused_op
    ):
        chip = dtu2_config()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            guarded = compile_graph(
                _cnn(), chip, dtype=DType.FP16, fusion=True,
                verify_fusion=True,
            )
        unfused = compile_graph(_cnn(), chip, dtype=DType.FP16, fusion=False)
        assert guarded.fell_back
        assert guarded.fusion is False
        assert guarded.model.fusion_groups == 0
        assert len(guarded.model.kernels) == len(unfused.model.kernels)
        for got, want in zip(guarded.model.kernels, unfused.model.kernels):
            assert got.name == want.name
            assert got.cost == want.cost
            assert got.code_bytes == want.code_bytes

    def test_fallback_warns_and_counts(self, doctored_fused_op):
        obs = Observability()
        with pytest.warns(RuntimeWarning, match="fusion equivalence guard"):
            result = compile_graph(
                _cnn(), dtu2_config(), dtype=DType.FP16, fusion=True,
                verify_fusion=True, obs=obs,
            )
        assert result.fell_back
        checks = obs.metrics.get("fusion_guard_checks_total")
        assert checks.value(result="mismatch") >= 1
        fallbacks = obs.metrics.get("fusion_guard_fallbacks_total")
        assert fallbacks.total() >= 1

    def test_device_compile_knob(self, doctored_fused_op):
        from repro.runtime.runtime import Device

        obs = Observability()
        device = Device.open("i20", obs=obs)
        with pytest.warns(RuntimeWarning, match="fusion equivalence guard"):
            compiled = device.compile(
                _cnn(), verify_fusion=True, cache=False
            )
        assert compiled.fusion_groups == 0
        assert (
            obs.metrics.get("fusion_guard_fallbacks_total").total() >= 1
        )

    def test_cache_keys_separate_verified_compiles(self, doctored_fused_op):
        from repro.caching import CompileCache
        from repro.runtime.runtime import Device

        device = Device.open("i20")
        cache = CompileCache()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            verified = device.compile(
                _cnn(), verify_fusion=True, cache=cache
            )
        plain = device.compile(_cnn(), cache=cache)
        assert verified.fusion_groups == 0  # guard fell back
        assert plain.fusion_groups > 0  # unverified entry is distinct
        assert len(cache) == 2


class TestStrictNumerics:
    """Satellite: NaN/Inf guard on reference-executor op outputs."""

    def _overflowing_graph(self):
        # float64 overflow: squaring 1e200 yields inf.
        builder = GraphBuilder("overflow")
        data = builder.input("x", (2, 4))
        out = builder.mul(data, data, name="boom")
        out = builder.relu(out, name="act")
        return builder.finish(outputs=[out])

    def test_overflow_trips_guard(self):
        from repro.graph.reference import NumericsError

        graph = self._overflowing_graph()
        executor = ReferenceExecutor(graph, strict_numerics=True)
        with pytest.raises(NumericsError) as excinfo, np.errstate(over="ignore"):
            executor.run(x=np.full((2, 4), 1e200))
        assert excinfo.value.node == "boom"

    def test_counter_increments(self):
        from repro.graph.reference import NumericsError

        obs = Observability()
        graph = self._overflowing_graph()
        executor = ReferenceExecutor(graph, strict_numerics=True, obs=obs)
        with pytest.raises(NumericsError), np.errstate(over="ignore"):
            executor.run(x=np.full((2, 4), 1e200))
        counter = obs.metrics.get("reference_numeric_guard_trips_total")
        assert counter.total() == 1

    def test_finite_run_passes(self):
        graph = self._overflowing_graph()
        executor = ReferenceExecutor(graph, strict_numerics=True)
        outputs = executor.run(x=np.zeros((2, 4)))
        assert np.all(np.isfinite(outputs["act.out"]))

    def test_guard_off_by_default(self):
        graph = self._overflowing_graph()
        with np.errstate(over="ignore"):
            outputs = ReferenceExecutor(graph).run(x=np.full((2, 4), 1e200))
        assert np.all(np.isinf(outputs["act.out"]))


def _cnn_with_alias():
    """``_cnn`` with an identity between the activation and the head, so
    the optimizer rewires a node's inputs as well as fusing."""
    graph = _cnn()
    flatten = next(node for node in graph.nodes if node.op_type == "flatten")
    source = flatten.inputs[0]
    graph.nodes.insert(
        graph.nodes.index(flatten),
        Node("alias", "identity", [source], ["alias.out"]),
    )
    graph.tensor_types["alias.out"] = graph.tensor_types[source]
    flatten.inputs = ["alias.out"]
    return graph


class TestCallerGraphUntouched:
    """``compile_graph`` never mutates the graph it is handed."""

    @pytest.mark.parametrize("fusion", [True, False])
    @pytest.mark.parametrize("verify", [True, False])
    def test_plain_and_guarded_compiles(self, fusion, verify):
        graph = _cnn_with_alias()
        digest, nodes = graph.structural_hash(), list(graph.nodes)
        result = compile_graph(
            graph, dtu2_config(), dtype=DType.FP16, fusion=fusion,
            verify_fusion=verify,
        )
        assert result.fusion is fusion
        assert graph.structural_hash() == digest
        assert all(got is node for got, node in zip(graph.nodes, nodes))
        assert len(graph.nodes) == len(nodes)

    def test_guard_fallback(self, doctored_fused_op):
        graph = _cnn_with_alias()
        digest, nodes = graph.structural_hash(), list(graph.nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = compile_graph(
                graph, dtu2_config(), dtype=DType.FP16, fusion=True,
                verify_fusion=True,
            )
        assert result.fell_back
        assert graph.structural_hash() == digest
        assert all(got is node for got, node in zip(graph.nodes, nodes))
        assert len(graph.nodes) == len(nodes)
