"""Device.open identity: repeated opens never alias telemetry or faults."""

import pytest

from repro.core.errors import ReproRuntimeError
from repro.faults import FaultInjector, FaultPlan
from repro.models.zoo import build
from repro.obs import Observability
from repro.runtime.runtime import Device


class TestOpenIdentity:
    def test_auto_ids_are_unique_and_sequential_per_name(self):
        first = Device.open("i20")
        second = Device.open("i20")
        third = Device.open("i10")
        ids = {first.device_id, second.device_id, third.device_id}
        assert len(ids) == 3
        assert first.device_id.startswith("i20-")
        assert third.device_id.startswith("i10-")

    def test_explicit_id_wins(self):
        device = Device.open("i20", device_id="i20-r7")
        assert device.device_id == "i20-r7"

    def test_opens_are_distinct_instances(self):
        first = Device.open("i20")
        second = Device.open("i20")
        assert first.accelerator is not second.accelerator
        first.malloc("x", 1024)
        assert second.memory_in_use == 0

    @pytest.mark.parametrize(
        "name, chip", [("i20", "DTU 2.0"), ("i10", "DTU 1.0")]
    )
    def test_open_and_by_name_share_one_product_table(self, name, chip):
        from repro.core.accelerator import Accelerator

        opened = Device.open(name).accelerator.chip
        assert Accelerator.by_name(name).chip == opened
        assert Accelerator.by_name(name).chip.name == chip

    def test_unknown_product_name_rejected(self):
        from repro.core.accelerator import Accelerator

        with pytest.raises(ReproRuntimeError, match="unknown device"):
            Accelerator.by_name("i30")

    def test_direct_construction_has_no_identity(self):
        # the measurement path builds Devices directly; its telemetry
        # must keep the historical unlabeled shape
        from repro.core.accelerator import Accelerator

        device = Device(Accelerator.cloudblazer_i20())
        assert device.device_id == ""


class TestPerDeviceTelemetry:
    def test_launch_spans_land_on_per_device_tracks(self):
        obs = Observability()
        a = Device.open("i20", obs=obs, device_id="i20-a")
        b = Device.open("i20", obs=obs, device_id="i20-b")
        for device in (a, b):
            compiled = device.compile(build("resnet50"), batch=1)
            device.launch(compiled, num_groups=2)
        tracks = {
            span.track for span in obs.tracer.spans_in("runtime")
            if span.name.startswith("launch:")
        }
        assert tracks == {"device.i20-a", "device.i20-b"}
        devices = {
            span.args.get("device")
            for span in obs.tracer.spans_in("runtime")
            if span.name.startswith("launch:")
        }
        assert devices == {"i20-a", "i20-b"}

    def test_launch_counters_carry_the_device_label(self):
        obs = Observability()
        device = Device.open("i20", obs=obs, device_id="i20-x")
        compiled = device.compile(build("resnet50"), batch=1)
        device.launch(compiled, num_groups=2)
        launches = obs.metrics.get("runtime_launches_total")
        (labels, value), = launches.samples()
        assert dict(labels)["device"] == "i20-x"
        assert value == 1.0

    def test_unidentified_device_keeps_legacy_labels(self):
        from repro.core.accelerator import Accelerator

        obs = Observability()
        accelerator = Accelerator.cloudblazer_i20()
        accelerator.attach_observability(obs)
        device = Device(accelerator)
        compiled = device.compile(build("resnet50"), batch=1)
        device.launch(compiled, num_groups=2)
        launches = obs.metrics.get("runtime_launches_total")
        (labels, _value), = launches.samples()
        assert "device" not in dict(labels)
        tracks = {
            span.track for span in obs.tracer.spans_in("runtime")
            if span.name.startswith("launch:")
        }
        assert tracks == {"device"}


class TestPerDeviceFaultRecords:
    def test_fault_records_carry_the_injector_device(self):
        device = Device.open("i20", device_id="i20-f")
        injector = FaultInjector(
            FaultPlan(seed=1, dma_corrupt_rate=0.05), device="i20-f"
        )
        device.accelerator.attach_faults(injector)
        compiled = device.compile(build("resnet50"), batch=1)
        device.launch(compiled, num_groups=2, max_retries=3)
        assert injector.records  # the campaign actually fired
        assert all(record.device == "i20-f" for record in injector.records)

    def test_default_injector_records_are_unattributed(self):
        injector = FaultInjector(FaultPlan(seed=1, dma_corrupt_rate=0.05))
        assert injector.device == ""
        device = Device.open("i20")
        device.accelerator.attach_faults(injector)
        compiled = device.compile(build("resnet50"), batch=1)
        device.launch(compiled, num_groups=2, max_retries=3)
        assert all(record.device == "" for record in injector.records)
