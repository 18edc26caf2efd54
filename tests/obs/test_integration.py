"""Cross-layer integration tests: one TraceContext threaded from serving
admission through Device.launch and the executor down to simulator
intervals and fault events — and zero cost when no hub is attached."""

import json

import pytest

from repro.cli import main
from repro.faults import FaultInjector, FaultPlan
from repro.models.zoo import build
from repro.obs import Observability
from repro.runtime.runtime import Device
from repro.serving import (
    InferenceServer,
    TenantConfig,
    TrafficPattern,
    generate_trace,
)


@pytest.fixture(scope="module")
def launch_obs():
    obs = Observability()
    device = Device.open("i20", obs=obs)
    compiled = device.compile(build("resnet50"), batch=1)
    result = device.launch(compiled, num_groups=3)
    return obs, result


class TestLaunchTelemetry:
    def test_layers_present(self, launch_obs):
        obs, _result = launch_obs
        assert {"runtime", "sim", "power"} <= obs.tracer.layers()

    def test_kernel_spans_parent_on_launch(self, launch_obs):
        obs, _result = launch_obs
        launch = next(
            span for span in obs.tracer.spans
            if span.name.startswith("launch:")
        )
        runs = [
            span for span in obs.tracer.spans
            if span.name.startswith("run:") and span.layer == "runtime"
        ]
        assert runs
        # launch -> attempt -> run: the run joins the launch's trace.
        assert all(span.trace_id == launch.trace_id for span in runs)

    def test_sim_intervals_join_the_same_trace(self, launch_obs):
        obs, _result = launch_obs
        launch = next(
            span for span in obs.tracer.spans
            if span.name.startswith("launch:")
        )
        sim_spans = obs.tracer.spans_in("sim")
        assert len(sim_spans) > 50
        assert all(span.trace_id == launch.trace_id for span in sim_spans)

    def test_engine_busy_metrics_match_simulator_trace(self, launch_obs):
        obs, _result = launch_obs
        busy = obs.metrics.get("sim_engine_busy_ns_total")
        core_busy = sum(
            value for labels, value in busy.samples()
            if labels["engine"] == "core"
        )
        sim_core_total = sum(
            span.duration_ns for span in obs.tracer.spans_in("sim")
            if span.track.startswith("core.")
        )
        assert core_busy == pytest.approx(sim_core_total)

    def test_kernel_category_shares_sum_to_one(self, launch_obs):
        obs, _result = launch_obs
        duration = obs.metrics.get("runtime_kernel_duration_ns")
        total = sum(series.sum for _labels, series in duration.samples())
        assert total > 0
        shares = [
            series.sum / total for _labels, series in duration.samples()
        ]
        assert sum(shares) == pytest.approx(1.0)

    def test_launch_counters(self, launch_obs):
        obs, _result = launch_obs
        launches = obs.metrics.get("runtime_launches_total")
        (labels, value), = launches.samples()
        assert labels["status"] == "ok"
        assert value == 1.0


class TestZeroCost:
    def test_results_bit_identical_with_and_without_obs(self):
        def run(obs):
            device = Device.open("i20", obs=obs)
            compiled = device.compile(build("unet"), batch=1)
            return device.launch(compiled, num_groups=2)

        bare = run(None)
        observed = run(Observability())
        assert observed.latency_ns == bare.latency_ns
        assert observed.energy_joules == bare.energy_joules
        assert observed.counters == bare.counters

    def test_faulty_results_bit_identical(self):
        def run(obs):
            plan = FaultPlan(seed=3, dma_corrupt_rate=0.05, ecc_ce_rate=0.05)
            device = Device.open("i20", obs=obs)
            device.accelerator.attach_faults(FaultInjector(plan))
            compiled = device.compile(build("resnet50"), batch=1)
            return device.launch(compiled, num_groups=2, max_retries=3)

        bare = run(None)
        observed = run(Observability())
        assert observed.latency_ns == bare.latency_ns


class TestServingThreading:
    def test_measurement_thread_reaches_every_layer(self):
        obs = Observability()
        plan = FaultPlan(seed=0, dma_corrupt_rate=0.05, ecc_ce_rate=0.05)
        server = InferenceServer(
            [TenantConfig("a", "resnet50", groups=2, max_batch=2)],
            obs=obs,
            fault_plan=plan,
            measurement_fault_plan=plan,
        )
        requests = generate_trace(
            [TrafficPattern("a", 200.0)], duration_s=0.02, seed=0
        )
        server.run(requests)
        assert {"serving", "runtime", "sim", "fault"} <= obs.tracer.layers()
        measure = next(
            span for span in obs.tracer.spans
            if span.name.startswith("measure:")
        )
        # admission-side measurement span roots the cross-layer trace
        for layer in ("runtime", "sim", "fault"):
            joined = [
                span for span in obs.tracer.spans_in(layer)
                if span.trace_id == measure.trace_id
            ]
            assert joined, f"no {layer} spans joined the serving trace"

    def test_request_accounting_mirrors_reports(self):
        obs = Observability()
        server = InferenceServer(
            [TenantConfig("a", "resnet50", groups=2)],
            service_times_ns={"a": 1e6},
            obs=obs,
        )
        requests = generate_trace(
            [TrafficPattern("a", 500.0)], duration_s=0.02, seed=1
        )
        reports = server.run(requests)
        counted = obs.metrics.get("serving_requests_total")
        assert counted.value(tenant="a", status="ok") == reports["a"].completed
        latency = obs.metrics.get("serving_request_latency_ms")
        assert latency.series(tenant="a").count == reports["a"].completed

    def test_serving_numbers_identical_with_obs(self):
        def run(obs):
            server = InferenceServer(
                [TenantConfig("a", "resnet50", groups=2, max_batch=4)],
                service_times_ns={"a": 1e6},
                obs=obs,
            )
            requests = generate_trace(
                [TrafficPattern("a", 800.0)], duration_s=0.02, seed=2
            )
            return run_reports(server, requests)

        def run_reports(server, requests):
            reports = server.run(requests)
            return {
                name: (r.completed, r.p99_ms, r.mean_batch)
                for name, r in reports.items()
            }

        assert run(None) == run(Observability())


class TestCli:
    def test_profile_prints_category_and_engine_tables(self, capsys):
        assert main(["profile", "resnet50", "--groups", "3"]) == 0
        out = capsys.readouterr().out
        assert "category" in out and "conv" in out
        assert "engine" in out and "core" in out and "dma" in out

    def test_profile_after_a_sharded_run(self, capsys):
        # The engine-core table lists the last sharded run's per-shard
        # wall times; with >= 2 shards their label dicts must not be
        # compared while ordering the rows.
        from repro.sim.parallel import run_sharded

        assert run_sharded(abs, [-1, -2, -3], workers=2) == [1, 2, 3]
        assert main(["profile", "resnet50"]) == 0
        out = capsys.readouterr().out
        assert "shard 0 wall s" in out and "shard 1 wall s" in out

    def test_profile_unknown_model(self, capsys):
        assert main(["profile", "alexnet"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_trace_writes_whole_stack_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(
            ["trace", "resnet50", "-o", str(path), "--duration", "0.02"]
        ) == 0
        document = json.loads(path.read_text())
        processes = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["name"] == "process_name"
        }
        assert {
            "serving (InferenceServer)", "runtime (Device/Executor)",
            "DTU 2.0 sim", "fault injection",
        } <= processes
        slices_by_pid = {
            event["pid"]
            for event in document["traceEvents"]
            if event["ph"] == "X"
        }
        # spans (not just metadata) on serving, runtime, sim and fault rows
        assert len(slices_by_pid) >= 4
