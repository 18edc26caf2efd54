"""Device-label cardinality cap (`repro.obs.labels`).

At fleet scale, per-device metric labels and span tracks explode
registry cardinality. The cap admits the first N distinct device ids
per hub and collapses the rest into ``device="other"``; the census is
per-registry so fresh hubs never inherit another run's budget.
"""

from repro.obs import OVERFLOW_DEVICE_LABEL, Observability, device_label

CAP = "repro.obs.labels.DEVICE_LABEL_CAP"


def test_default_cap():
    obs = Observability()
    for i in range(64):
        assert device_label(obs, f"d{i}") == f"d{i}"
    assert device_label(obs, "d64") == OVERFLOW_DEVICE_LABEL


def test_cap_ignores_retired_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_OBS_DEVICE_LABEL_CAP", "1")
    obs = Observability()
    assert device_label(obs, "a") == "a"
    assert device_label(obs, "b") == "b"


def test_first_cap_ids_keep_identity_later_collapse(monkeypatch):
    monkeypatch.setattr(CAP, 2)
    obs = Observability()
    assert device_label(obs, "i20-0") == "i20-0"
    assert device_label(obs, "i20-1") == "i20-1"
    assert device_label(obs, "i20-2") == OVERFLOW_DEVICE_LABEL
    assert device_label(obs, "i20-3") == OVERFLOW_DEVICE_LABEL
    # admitted ids stay admitted for the hub's lifetime
    assert device_label(obs, "i20-0") == "i20-0"
    assert device_label(obs, "i20-1") == "i20-1"


def test_census_is_per_registry(monkeypatch):
    monkeypatch.setattr(CAP, 1)
    first, second = Observability(), Observability()
    assert device_label(first, "a") == "a"
    assert device_label(first, "b") == OVERFLOW_DEVICE_LABEL
    # a fresh hub starts with a fresh budget
    assert device_label(second, "b") == "b"
    assert device_label(second, "a") == OVERFLOW_DEVICE_LABEL


def test_launch_counters_collapse_past_the_cap(monkeypatch):
    from repro import Device, build_model

    monkeypatch.setattr(CAP, 2)
    obs = Observability()
    model = build_model("resnet50")
    for index in range(4):
        device = Device.open("i20", obs=obs, device_id=f"i20-{index}")
        device.launch(device.compile(model, batch=1))
    devices = {}
    for metric in obs.metrics.collect():
        if metric.name != "runtime_launches_total":
            continue
        for labels, value in metric._values.items():
            label_map = dict(labels)
            if "device" in label_map:
                devices[label_map["device"]] = (
                    devices.get(label_map["device"], 0.0) + value
                )
    assert set(devices) == {"i20-0", "i20-1", OVERFLOW_DEVICE_LABEL}
    # the two capped devices share one overflow bucket
    assert devices[OVERFLOW_DEVICE_LABEL] == 2.0
    # spans follow the same budget: no per-device track past the cap
    tracks = {
        span.track for span in obs.tracer.spans
        if span.track.startswith("device.")
    }
    assert tracks == {
        "device.i20-0", "device.i20-1", f"device.{OVERFLOW_DEVICE_LABEL}",
    }
