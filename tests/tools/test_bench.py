"""The benchmark harness: schema validator, regression gates, outputs."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "bench", REPO_ROOT / "tools" / "bench.py"
)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

SCHEMA = json.loads((REPO_ROOT / "benchmarks" / "perf" / "schema.json").read_text())
BASELINE = json.loads(
    (REPO_ROOT / "benchmarks" / "perf" / "baseline.json").read_text()
)


def _report(benchmarks):
    return {
        "schema_version": 1,
        "run": {"quick": True, "timestamp": "t", "python": "3"},
        "benchmarks": benchmarks,
    }


class TestValidator:
    def test_valid_document_passes(self):
        doc = _report(
            [{"name": "x", "wall_seconds": 0.1, "metrics": {"speedup": 2.0}}]
        )
        assert bench.validate(doc, SCHEMA) == []

    def test_missing_required_key(self):
        doc = _report([{"name": "x", "metrics": {}}])
        errors = bench.validate(doc, SCHEMA)
        assert any("wall_seconds" in e for e in errors)

    def test_wrong_schema_version(self):
        doc = _report([])
        doc["schema_version"] = 2
        assert any("constant" in e for e in bench.validate(doc, SCHEMA))

    def test_non_numeric_metric_rejected(self):
        doc = _report(
            [{"name": "x", "wall_seconds": 0.1, "metrics": {"bad": "fast"}}]
        )
        assert any("expected number" in e for e in bench.validate(doc, SCHEMA))

    def test_bool_is_not_a_number(self):
        doc = _report(
            [{"name": "x", "wall_seconds": 0.1, "metrics": {"flag": True}}]
        )
        assert bench.validate(doc, SCHEMA) != []

    def test_negative_wall_time_rejected(self):
        doc = _report([{"name": "x", "wall_seconds": -0.1, "metrics": {}}])
        assert any("minimum" in e for e in bench.validate(doc, SCHEMA))

    def test_unexpected_top_level_key_rejected(self):
        doc = _report([])
        doc["surprise"] = 1
        assert any("unexpected key" in e for e in bench.validate(doc, SCHEMA))

    def test_committed_bench_report_is_valid(self):
        committed = REPO_ROOT / "BENCH_1.json"
        report = json.loads(committed.read_text())
        assert bench.validate(report, SCHEMA) == []


class TestRegressionGates:
    def _single(self, name, metrics, quick=True):
        report = _report([{"name": name, "wall_seconds": 0.1, "metrics": metrics}])
        report["run"]["quick"] = quick
        return report

    def test_min_floor(self):
        baseline = {"gates": [
            {"benchmark": "b", "metric": "speedup", "kind": "min", "value": 20.0}
        ]}
        ok = self._single("b", {"speedup": 25.0})
        bad = self._single("b", {"speedup": 12.0})
        assert bench.check_regressions(ok, baseline) == []
        assert bench.check_regressions(bad, baseline)

    def test_max_ceiling(self):
        baseline = {"gates": [
            {"benchmark": "b", "metric": "reruns", "kind": "max", "value": 0.0}
        ]}
        assert bench.check_regressions(self._single("b", {"reruns": 0.0}), baseline) == []
        assert bench.check_regressions(self._single("b", {"reruns": 1.0}), baseline)

    def test_relative_lower_is_better(self):
        baseline = {"gates": [{
            "benchmark": "b", "metric": "latency", "kind": "relative",
            "value": 10.0, "tolerance": 0.2, "higher_is_better": False,
        }]}
        assert bench.check_regressions(self._single("b", {"latency": 11.9}), baseline) == []
        assert bench.check_regressions(self._single("b", {"latency": 12.1}), baseline)

    def test_relative_higher_is_better(self):
        baseline = {"gates": [{
            "benchmark": "b", "metric": "rate", "kind": "relative",
            "value": 1.0, "tolerance": 0.2, "higher_is_better": True,
        }]}
        assert bench.check_regressions(self._single("b", {"rate": 0.85}), baseline) == []
        assert bench.check_regressions(self._single("b", {"rate": 0.7}), baseline)

    def test_missing_metric_fails(self):
        baseline = {"gates": [
            {"benchmark": "b", "metric": "gone", "kind": "min", "value": 1.0}
        ]}
        assert bench.check_regressions(self._single("b", {}), baseline)

    def test_quick_only_gate_skipped_on_full_runs(self):
        baseline = {"gates": [{
            "benchmark": "b", "metric": "p99", "kind": "relative",
            "value": 1.0, "quick_only": True,
        }]}
        full = self._single("b", {"p99": 100.0}, quick=False)
        quick = self._single("b", {"p99": 100.0}, quick=True)
        assert bench.check_regressions(full, baseline) == []
        assert bench.check_regressions(quick, baseline)

    def test_committed_baseline_gates_are_well_formed(self):
        for gate in BASELINE["gates"]:
            assert gate["kind"] in ("min", "max", "relative")
            assert isinstance(gate["value"], (int, float))


class TestOutputs:
    def test_next_output_path_skips_taken_numbers(self, tmp_path):
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_3.json").write_text("{}")
        assert bench.next_output_path(tmp_path).name == "BENCH_2.json"

    def test_gemm_benchmark_meets_its_own_gate(self):
        result = bench.bench_gemm(quick=True)
        assert result["metrics"]["speedup"] >= 20.0
        assert bench.validate(
            _report([result]), SCHEMA
        ) == [], "bench_gemm emits off-schema metrics"

    def test_main_quick_writes_valid_report(self, tmp_path):
        output = tmp_path / "BENCH_1.json"
        code = bench.main(
            ["--quick", "-o", str(output), "--check", str(bench.BASELINE_PATH)]
        )
        assert code == 0
        report = json.loads(output.read_text())
        assert bench.validate(report, SCHEMA) == []
        names = {b["name"] for b in report["benchmarks"]}
        assert {"micro.gemm_fastpath", "micro.rle_codec",
                "e2e.resnet50", "serving.multitenant",
                "serving.server_qos"} <= names
