"""Fault injection through the detailed simulator + Device.launch RAS."""

import inspect

import pytest

from repro.engines.compute_core import ComputeCore
from repro.engines.vliw import Instruction, Packet, Program
from repro.faults import (
    CoreHangFault,
    DeadlineExceededError,
    FaultInjector,
    FaultPlan,
    TransientFault,
)
from repro.graph.builder import GraphBuilder
from repro.runtime.runtime import Device


def _tiny_graph():
    builder = GraphBuilder("tiny")
    x = builder.input("x", (1, 8, 32, 32))
    y = builder.conv2d(x, 16, 3, pad=1)
    y = builder.relu(y)
    y = builder.conv2d(y, 16, 3, pad=1)
    return builder.finish([y])


def _launch(plan=None, **launch_kwargs):
    device = Device.open("i20")
    injector = None
    if plan is not None:
        injector = FaultInjector(plan)
        device.accelerator.attach_faults(injector)
    compiled = device.compile(_tiny_graph())
    result = device.launch(compiled, num_groups=3, **launch_kwargs)
    return result, injector


TRANSIENT = FaultPlan(
    seed=7,
    dma_corrupt_rate=0.15,
    ecc_ce_rate=0.10,
    sync_loss_rate=0.10,
    core_slowdown_rate=0.20,
)


class TestZeroOverheadDefault:
    def test_disabled_plan_is_bit_identical(self):
        baseline, _ = _launch()
        zeroed, injector = _launch(FaultPlan())
        assert zeroed.latency_ns == baseline.latency_ns
        assert zeroed.energy_joules == baseline.energy_joules
        assert injector.records == []

    def test_detach_restores_baseline(self):
        baseline, _ = _launch()
        device = Device.open("i20")
        device.accelerator.attach_faults(FaultInjector(TRANSIENT))
        device.accelerator.attach_faults(None)
        result = device.launch(device.compile(_tiny_graph()), num_groups=3)
        assert result.latency_ns == baseline.latency_ns


class TestTransientFaults:
    def test_transient_faults_add_latency(self):
        baseline, _ = _launch()
        faulty, injector = _launch(TRANSIENT)
        assert faulty.latency_ns > baseline.latency_ns
        assert injector.records
        assert all(record.recovered for record in injector.records)

    def test_same_seed_reproduces_fault_sequence(self):
        first, injector_a = _launch(TRANSIENT)
        second, injector_b = _launch(TRANSIENT)
        assert first.latency_ns == second.latency_ns
        assert injector_a.records == injector_b.records

    def test_fault_counters_exported(self):
        faulty, injector = _launch(TRANSIENT)
        assert faulty.counters["faults_injected"] == len(injector.records)
        assert faulty.counters["faults_recovered"] == len(injector.records)
        assert "dma_replays" in faulty.counters
        assert "sync_lost_events" in faulty.counters


class TestFatalFaultsAndRetry:
    ABORTY = FaultPlan(seed=3, dma_abort_rate=0.05)

    def _first_failing_launch(self):
        """A (device, compiled) pair whose first launch raises."""
        device = Device.open("i20")
        device.accelerator.attach_faults(FaultInjector(self.ABORTY))
        compiled = device.compile(_tiny_graph())
        return device, compiled

    def test_fatal_fault_raises_typed_exception(self):
        device, compiled = self._first_failing_launch()
        with pytest.raises(TransientFault) as info:
            # some seed-dependent prefix of launches may pass cleanly
            for _ in range(500):
                device.launch(compiled, num_groups=3)
        assert getattr(info.value, "elapsed_ns", 0.0) > 0.0

    def test_retry_with_backoff_recovers(self):
        device, compiled = self._first_failing_launch()
        result = device.launch(compiled, num_groups=3, max_retries=50)
        assert result.latency_ns > 0
        # the accelerator is reusable after a failed-and-retried launch
        again = device.launch(compiled, num_groups=3, max_retries=50)
        assert again.latency_ns > 0

    def test_launch_takes_no_backoff_knob(self):
        # The first backoff is repro.runtime.runtime.RETRY_BACKOFF_MS.
        assert list(inspect.signature(Device.launch).parameters) == [
            "self", "compiled", "num_groups", "tenant", "deadline_ms",
            "max_retries", "trace_ctx",
        ]

    def test_retry_overhead_included_in_latency(self):
        baseline, _ = _launch()
        device, compiled = self._first_failing_launch()
        result = device.launch(compiled, num_groups=3, max_retries=50)
        retries = result.counters.get("launch_retries", 0)
        if retries:
            assert result.latency_ns > baseline.latency_ns
            assert result.counters["retry_overhead_ns"] > 0

    def test_deadline_exceeded_raises(self):
        with pytest.raises(DeadlineExceededError):
            _launch(None, deadline_ms=1e-9)

    def test_generous_deadline_passes(self):
        result, _ = _launch(None, deadline_ms=1e6)
        assert result.latency_ns > 0


class TestComputeCoreHangHook:
    def _program(self):
        packet = Packet((Instruction("smov", dest="s0", imm=(1.0,)),))
        return Program([packet])

    def test_no_injector_runs_clean(self):
        core = ComputeCore()
        assert core.run(self._program()) >= 0
        assert core.state.scalar["s0"] == 1.0

    def test_injected_hang_raises_watchdog_fault(self):
        core = ComputeCore(fault_injector=FaultInjector(FaultPlan(core_hang_rate=1.0)))
        with pytest.raises(CoreHangFault):
            core.run(self._program())
        assert core.halted
