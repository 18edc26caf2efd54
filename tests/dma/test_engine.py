"""Unit tests for the timed DMA engine, repeat mode and broadcast."""

import numpy as np
import pytest

from repro.core.config import dtu2_config
from repro.dma.broadcast import BroadcastError, broadcast_to_groups
from repro.dma.engine import DmaEngine, DmaRouteError, check_route
from repro.dma.repeat import RepeatDescriptor
from repro.dma.transforms import TransformError
from repro.memory.hierarchy import MemoryLevel
from repro.sim import Simulator

MB = 1 << 20


@pytest.fixture
def setup():
    sim = Simulator()
    chip = dtu2_config()
    l1 = MemoryLevel(sim, chip.l1_per_core, name="L1.test")
    l2 = MemoryLevel(sim, chip.l2_per_group, name="L2.test")
    l3 = MemoryLevel(sim, chip.l3, name="L3")
    return sim, l1, l2, l3


class TestRouting:
    def test_dtu2_allows_any_route(self, setup):
        sim, l1, l2, l3 = setup
        engine = DmaEngine(sim, allow_direct_l1_l3=True)
        engine.validate_route(l1, l3)
        engine.validate_route(l3, l1)
        engine.validate_route(l2, l2)

    def test_dtu1_blocks_l1_l3(self, setup):
        sim, l1, l2, l3 = setup
        engine = DmaEngine(sim, allow_direct_l1_l3=False)
        engine.validate_route(l1, l2)
        engine.validate_route(l2, l3)
        with pytest.raises(DmaRouteError):
            engine.validate_route(l1, l3)
        with pytest.raises(DmaRouteError):
            engine.validate_route(l2, l2)

    def test_unknown_level_rejected(self, setup):
        sim, l1, _l2, _l3 = setup
        from repro.core.config import MemoryLevelConfig

        odd = MemoryLevel(
            sim,
            MemoryLevelConfig("weird", 10, 1.0, 1, 1.0),
            name="scratch",
        )
        with pytest.raises(DmaRouteError):
            DmaEngine(sim).validate_route(l1, odd)


    def test_transfer_checks_every_route_before_it_starts(self, setup):
        sim, l1, l2, l3 = setup
        engine = DmaEngine(sim, allow_direct_l1_l3=False)
        with pytest.raises(DmaRouteError, match="any-direction"):
            engine.transfer(MB, l3, [l2, l1])  # raises at the call
        assert sim.now == 0.0 and engine.stats.transactions == 0

    def test_check_route_by_level_name(self):
        check_route("L3", "L2.c0g0", allow_direct_l1_l3=False)
        check_route("L1.core0", "L3", allow_direct_l1_l3=True)
        with pytest.raises(DmaRouteError, match="dma.g7: route L1.x -> L3"):
            check_route("L1.x", "L3", allow_direct_l1_l3=False, engine="dma.g7")
        with pytest.raises(DmaRouteError, match="not part of the hierarchy"):
            check_route("L3", "scratch", allow_direct_l1_l3=True)


class TestTiming:
    def test_estimate_matches_simulation(self, setup):
        sim, _l1, l2, l3 = setup
        engine = DmaEngine(sim)
        estimate = engine.transfer_time_ns(4 * MB, l3, l2)
        sim.spawn(engine.transfer(4 * MB, l3, l2))
        sim.run()
        assert sim.now == pytest.approx(estimate, rel=0.01)

    def test_config_overhead_charged_per_configuration(self, setup):
        sim, _l1, l2, l3 = setup
        engine = DmaEngine(sim, config_overhead_ns=500.0)
        one = engine.transfer_time_ns(MB, l3, l2, configurations=1)
        nine = engine.transfer_time_ns(MB, l3, l2, configurations=9)
        assert nine - one == pytest.approx(8 * 500.0)

    def test_compressed_wire_is_faster(self, setup):
        sim, _l1, l2, l3 = setup
        engine = DmaEngine(sim)
        dense = engine.transfer_time_ns(8 * MB, l3, l2)
        sparse = engine.transfer_time_ns(8 * MB, l3, l2, wire_bytes=2 * MB)
        assert sparse < dense

    def test_stats_accumulate(self, setup):
        sim, _l1, l2, l3 = setup
        engine = DmaEngine(sim)
        sim.spawn(engine.transfer(MB, l3, l2, wire_bytes=MB // 4))
        sim.run()
        assert engine.stats.transactions == 1
        assert engine.stats.bytes_moved == MB
        assert engine.stats.wire_bytes == MB // 4
        assert engine.stats.configurations == 1


class TestHardwareBroadcast:
    def test_single_pass_writes_all_destinations(self, setup):
        sim, _l1, _l2, l3 = setup
        chip = dtu2_config()
        destinations = [
            MemoryLevel(sim, chip.l2_per_group, name=f"L2.g{i}") for i in range(3)
        ]
        engine = DmaEngine(sim)
        sim.spawn(engine.transfer(MB, l3, destinations, hardware_broadcast=True))
        sim.run()
        broadcast_time = sim.now
        assert engine.stats.bytes_moved == 3 * MB
        assert engine.stats.wire_bytes == MB  # source read once

        sim2 = Simulator()
        l3_b = MemoryLevel(sim2, chip.l3, name="L3")
        dests2 = [
            MemoryLevel(sim2, chip.l2_per_group, name=f"L2.h{i}") for i in range(3)
        ]
        serial = DmaEngine(sim2)
        sim2.spawn(serial.transfer(MB, l3_b, dests2, hardware_broadcast=False))
        sim2.run()
        assert sim2.now > broadcast_time
        assert serial.stats.wire_bytes == 3 * MB

    def test_estimate_broadcast_saves_passes(self, setup):
        sim, _l1, l2, l3 = setup
        engine = DmaEngine(sim)
        with_hw = engine.transfer_time_ns(MB, l3, l2, copies=3, hardware_broadcast=True)
        without = engine.transfer_time_ns(MB, l3, l2, copies=3, hardware_broadcast=False)
        assert without > with_hw


class TestFunctionalBroadcast:
    def test_copies_are_independent(self):
        stores = {0: {}, 1: {}, 2: {}}
        source = np.arange(6.0)
        result = broadcast_to_groups(source, stores, (0, 1, 2), "weights")
        stores[0]["weights"][0] = 99.0
        assert stores[1]["weights"][0] == 0.0
        assert result.total_bytes_written == 3 * source.nbytes
        assert result.source_reads == 1

    def test_software_fallback_reads_n_times(self):
        stores = {0: {}, 1: {}}
        result = broadcast_to_groups(
            np.zeros(4), stores, (0, 1), "w", hardware_broadcast=False
        )
        assert result.source_reads == 2

    def test_duplicate_destination_rejected(self):
        with pytest.raises(BroadcastError):
            broadcast_to_groups(np.zeros(2), {0: {}}, (0, 0), "w")

    def test_unknown_destination_rejected(self):
        with pytest.raises(BroadcastError):
            broadcast_to_groups(np.zeros(2), {0: {}}, (0, 5), "w")

    def test_empty_destinations_rejected(self):
        with pytest.raises(BroadcastError):
            broadcast_to_groups(np.zeros(2), {0: {}}, (), "w")


class TestRepeatMode:
    def test_fig6_slicing(self):
        """Fig. 6: 9 slices out of a large tensor, one configuration."""
        descriptor = RepeatDescriptor(dim=0, window=4, stride=4, count=9)
        tensor = np.arange(descriptor.required_extent() * 2).reshape(-1, 2)
        windows = descriptor.expand(tensor)
        assert len(windows) == 9
        assert all(window.shape == (4, 2) for window in windows)
        assert np.array_equal(windows[1], tensor[4:8])

    def test_overlapping_windows(self):
        descriptor = RepeatDescriptor(dim=0, window=4, stride=2, count=3)
        tensor = np.arange(descriptor.required_extent())
        windows = descriptor.expand(tensor)
        assert windows[0].tolist() == [0, 1, 2, 3]
        assert windows[1].tolist() == [2, 3, 4, 5]

    def test_configuration_savings(self):
        descriptor = RepeatDescriptor(dim=0, window=2, stride=2, count=10)
        assert descriptor.configurations_needed(repeat_mode=True) == 1
        assert descriptor.configurations_needed(repeat_mode=False) == 10
        assert descriptor.config_overhead_saved() == pytest.approx(0.9)

    def test_undersized_tensor_rejected(self):
        descriptor = RepeatDescriptor(dim=0, window=4, stride=4, count=9)
        with pytest.raises(TransformError):
            descriptor.expand(np.zeros((10, 2)))

    def test_degenerate_descriptor_rejected(self):
        with pytest.raises(TransformError):
            RepeatDescriptor(dim=0, window=0, stride=1, count=1)

    def test_repeat_plus_engine_end_to_end(self, setup):
        """Repeat mode cuts the timed cost of a 9-slice pattern (Fig. 6)."""
        sim, _l1, l2, l3 = setup
        engine = DmaEngine(sim, config_overhead_ns=1000.0)
        descriptor = RepeatDescriptor(dim=0, window=4, stride=4, count=9)
        slice_bytes = 64 * 1024
        with_repeat = engine.transfer_time_ns(
            9 * slice_bytes, l3, l2,
            configurations=descriptor.configurations_needed(True),
        )
        without = engine.transfer_time_ns(
            9 * slice_bytes, l3, l2,
            configurations=descriptor.configurations_needed(False),
        )
        assert without - with_repeat == pytest.approx(8 * 1000.0)
