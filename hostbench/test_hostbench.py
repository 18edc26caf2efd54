"""Tests of the benchmark's own machinery (run: python3 -m pytest hostbench).

Covers the self-time math, the metric-name rules of BENCHMARK.json and
that every wrapper the traced run installs is taken out again.
"""

import importlib
import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, root_of, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """Advances one second per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_subtracts_children():
    # outer [1, 8] holds a [2, 3] and b [4, 7]; b holds leaf [5, 6]
    rec = SpanRecorder(clock=FakeClock())
    leaf = rec.wrap("leaf", lambda: None)
    inner_a = rec.wrap("a", lambda: None)
    inner_b = rec.wrap("b", lambda: leaf())
    outer = rec.wrap("outer", lambda: (inner_a(), inner_b()))
    outer()
    names, starts, ends, parents = rec.arrays()
    assert [rec.names[i] for i in names] == ["outer", "a", "b", "leaf"]
    assert parents.tolist() == [-1, 0, 0, 2]
    assert self_times(starts, ends, parents).tolist() == [3.0, 1.0, 2.0, 1.0]
    assert root_of(parents).tolist() == [0, 0, 0, 0]


def test_roots_keep_counts_and_drop_the_warmup():
    rec = SpanRecorder(clock=FakeClock())
    work = rec.wrap("work", lambda: rec.add("items", 2))
    with rec.root("setup"):
        work()
    mark = len(rec)
    with rec.root("warmup"):
        work()
    rec.drop_since(mark)
    with rec.root("pass"):
        work()
        work()
    names, _starts, _ends, parents = rec.arrays()
    assert [rec.names[i] for i in names] == [
        "setup", "work", "pass", "work", "work"
    ]
    assert root_of(parents).tolist() == [0, 0, 2, 2, 2]
    assert list(rec.root_counts.values()) == [{"items": 2.0}, {"items": 4.0}]


def test_a_raising_call_still_closes_its_span():
    rec = SpanRecorder(clock=FakeClock())

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    _names, starts, ends, parents = rec.arrays()
    assert ends[0] > starts[0] and parents.tolist() == [-1]
    with rec.root("pass"):  # the call stack is empty again
        pass


def test_evaluate_reports_setup_plus_mean_pass():
    rec = SpanRecorder(clock=FakeClock())
    fn = rec.wrap("graph.hash", lambda: None)
    with rec.root("setup"):
        fn()
    for _ in range(2):
        with rec.root("pass"):
            fn()
            fn()
    values, activity, host = layers.evaluate(rec)
    # one 1-second call in set-up + a mean of two 1-second calls per pass
    assert values["graph.hash_s"] == pytest.approx(3.0)
    assert activity["graph.hash_s"] == pytest.approx(3.0)
    assert host["pass_s"] == [5.0, 5.0]
    assert host["unattributed_frac"] == pytest.approx(0.6)
    assert values["models.build_s"] == 0.0
    failures = layers.load_failures("zoo", values, activity)
    assert "graph.hash_s" not in " ".join(failures)
    assert any(f.startswith("models.build_s:") for f in failures)


def test_quiet_pass_sums_each_units_fastest_sample():
    # three passes of two units; unit 0 is fastest in pass 1, unit 1 in 0
    passes = [[3.0, 1.0], [2.0, 4.0], [5.0, 2.0]]
    assert run.quiet_pass_s(passes) == 3.0


def test_metric_names_and_units_follow_the_contract():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    per_layer = [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ]
    assert per_layer == [(m.name, m.unit, m.better) for m in layers.METRICS]
    for metric in layers.METRICS:
        assert set(metric.loads) <= set(run.WORKLOADS), metric.name


def test_catalogue_lists_every_metric():
    catalogue = (HERE / "CATALOGUE.md").read_text()
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert f"`{metric['name']}`" in catalogue, metric["name"]


def test_patches_cover_every_binding_and_are_restored(monkeypatch):
    def original():
        return 7

    class Target:
        def plain(self):
            return 1

        @classmethod
        def klass(cls):
            return 2

        @staticmethod
        def static():
            return 3

    home = types.ModuleType("fakepkg.home")
    home.original = original
    user = types.ModuleType("fakepkg.user")
    user.alias = original
    outsider = types.ModuleType("other")
    outsider.original = original
    for module in (home, user, outsider):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    raw = {name: vars(Target)[name] for name in ("plain", "klass", "static")}

    rec = SpanRecorder()
    assert rec.patch_function(
        "fakepkg.home", "original", "f", prefix="fakepkg"
    ) == 2
    for name in raw:
        rec.patch_method(Target, name, f"m.{name}")
    assert home.original() + user.alias() == 14
    assert outsider.original is original
    assert (Target().plain(), Target.klass(), Target.static()) == (1, 2, 3)
    assert [rec.names[i] for i in rec.arrays()[0]] == [
        "f", "f", "m.plain", "m.klass", "m.static"
    ]

    rec.restore()
    assert home.original is original and user.alias is original
    for name, value in raw.items():
        assert vars(Target)[name] is value


def test_layer_wrappers_reach_every_lookup_and_are_restored():
    for module in layers.MODULES:
        importlib.import_module(module)

    def snapshot():
        state = {
            name: dict(vars(module))
            for name, module in sys.modules.items()
            if name == "repro" or name.startswith("repro.")
        }
        for module, cls_name, attr, *_ in layers.METHODS:
            cls = getattr(sys.modules[module], cls_name)
            state[(module, cls_name, attr)] = vars(cls)[attr]
        return state

    before = snapshot()
    rec = SpanRecorder()
    layers.install(rec)
    try:
        build = sys.modules["repro.models.zoo"].build
        assert build is not before["repro.models.zoo"]["build"]
        for module in ("repro.serving.fleet", "repro.serving.server"):
            assert sys.modules[module].build is build
        measure = sys.modules["repro.serving.server"].measure_service_time_ns
        assert sys.modules["repro.serving.fleet"].measure_service_time_ns \
            is measure
    finally:
        rec.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    for key, value in before.items():
        if isinstance(value, dict):
            changed = [k for k in value if after[key].get(k) is not value[k]]
            assert not changed, (key, changed)
        else:
            assert after[key] is value, key
