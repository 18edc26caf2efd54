"""Tests for exporting bare simulator traces to Chrome trace JSON."""

import json

from repro.models import build
from repro.obs import save_chrome_trace, to_chrome_trace, tracer_from_trace
from repro.runtime.runtime import Device
from repro.sim.trace import Trace


def _sample_trace():
    trace = Trace()
    trace.record("core.c0g0", "conv_0", 0.0, 1000.0)
    trace.record("dma.c0g0", "conv_0", 0.0, 400.0)
    trace.record("core.c0g0", "relu_0", 1000.0, 1100.0)
    return trace


def test_one_slice_per_interval():
    document = to_chrome_trace(tracer_from_trace(_sample_trace()))
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 3


def test_threads_named_after_engines():
    document = to_chrome_trace(tracer_from_trace(_sample_trace()))
    names = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["name"] == "thread_name"
    }
    assert names == {"core.c0g0", "dma.c0g0"}


def test_timestamps_in_microseconds():
    document = to_chrome_trace(tracer_from_trace(_sample_trace()))
    conv = next(
        e for e in document["traceEvents"]
        if e["ph"] == "X" and e["name"] == "conv_0" and e["cat"] == "core"
    )
    assert conv["ts"] == 0.0
    assert conv["dur"] == 1.0  # 1000 ns


def test_categories_split_engine_families():
    document = to_chrome_trace(tracer_from_trace(_sample_trace()))
    categories = {e["cat"] for e in document["traceEvents"] if e["ph"] == "X"}
    assert categories == {"core", "dma"}


def test_save_is_valid_json(tmp_path):
    path = save_chrome_trace(
        tracer_from_trace(_sample_trace()), tmp_path / "trace.json"
    )
    document = json.loads(path.read_text())
    assert "traceEvents" in document


def test_real_execution_trace_exports(tmp_path):
    device = Device.open("i20")
    compiled = device.compile(build("resnet50"), batch=1)
    device.launch(compiled, num_groups=3)
    path = save_chrome_trace(
        tracer_from_trace(device.accelerator.trace),
        tmp_path / "resnet50.json",
    )
    document = json.loads(path.read_text())
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(slices) > 50
    assert any(e["cat"] == "core" for e in slices)
    assert any(e["cat"] == "dma" for e in slices)
