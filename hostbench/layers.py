"""Per-layer metrics: which calls the traced run times, and the derivations.

:func:`install` wraps each layer's public entry points (see
:mod:`spans`); :func:`evaluate` turns the recorded spans and hook
counters into the ``per_layer`` metrics of BENCHMARK.json. Every
metric is reported as *set-up + one timed pass*: what the layer cost in
the process's set-up phase plus its mean over the traced passes, so
layers that work only during set-up (device bring-up, service-time
measurement) and layers that work in every pass read on one scale.

Each metric names the workloads whose traced run must load it; the run
fails when such a metric records zero calls there (a wrapper on a stale
binding records nothing). Chaos-only layers must read exactly zero on
the detached workloads.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass

import numpy as np

from spans import root_of, self_times

ZOO, FLEET, SERVER, CHAOS = "zoo", "fleet-1k", "server-qos", "chaos"
WORKLOADS = (ZOO, FLEET, SERVER, CHAOS)


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: ``scale * value(num) / value(den)``.

    A source is ``"self:<span>"`` (self seconds), ``"incl:<span>"``
    (inclusive seconds), ``"calls:<span>"`` (span count) or
    ``"count:<key>"`` (a hook counter). Metrics without a source are
    computed by the benchmark itself (``host.*``).
    """

    name: str
    unit: str
    better: str
    num: str | None
    den: str | None = None
    scale: float = 1.0
    loads: tuple[str, ...] = ()
    """Workloads whose traced run must record a call for this metric."""
    detached_zero: bool = False
    """Must read exactly 0 on every workload outside ``loads``."""


def _m(name, unit, num, loads=(), den=None, scale=1.0, better="lower",
       detached_zero=False):
    return LayerMetric(name, unit, better, num, den, scale, loads,
                       detached_zero)


METRICS: tuple[LayerMetric, ...] = (
    _m("models.build_s", "s", "self:models.build", WORKLOADS),
    _m("graph.validate_s", "s", "self:graph.validate", (ZOO,)),
    _m("graph.bind_s", "s", "self:graph.bind", (ZOO,)),
    _m("graph.optimize_s", "s", "self:graph.optimize", (ZOO,)),
    _m("graph.hash_s", "s", "self:graph.hash", (ZOO,)),
    _m("compiler.lower_s", "s", "self:compiler.lower", (ZOO,)),
    _m("compiler.tiling_s", "s", "self:compiler.tiling", (ZOO,)),
    _m("compiler.tiling_calls", "count", "calls:compiler.tiling", (ZOO,)),
    _m("compiler.tensorize_s", "s", "self:compiler.tensorize", (ZOO,)),
    _m("compiler.kernels", "count", "count:compiler.kernels", (ZOO,)),
    _m("caching.compile_hit_rate", "fraction", "count:caching.compile_hits",
       (FLEET, SERVER, CHAOS), den="count:caching.compile_lookups",
       better="higher"),
    _m("caching.measure_hit_rate", "fraction", "count:caching.measure_hits",
       (FLEET, SERVER), den="count:caching.measure_lookups",
       better="higher"),
    _m("runtime.open_s", "s", "self:runtime.open", (ZOO, FLEET, CHAOS)),
    _m("runtime.opens", "count", "calls:runtime.open", (ZOO, FLEET, CHAOS)),
    _m("runtime.launch_s", "s", "self:runtime.launch", (ZOO, CHAOS)),
    _m("runtime.launches", "count", "calls:runtime.launch", (ZOO, CHAOS)),
    _m("runtime.executor_s", "s", "self:runtime.executor", (ZOO, CHAOS)),
    _m("runtime.retries", "count", "count:runtime.retries"),
    _m("sim.run_s", "s", "self:sim.run", (ZOO,)),
    _m("sim.events", "count", "count:sim.events", (ZOO,)),
    _m("sim.ns_per_event", "ns", "self:sim.run", (ZOO,),
       den="count:sim.events", scale=1e9),
    _m("sim.busy_query_s", "s", "self:sim.busy_query", (ZOO,)),
    _m("sim.busy_queries", "count", "calls:sim.busy_query", (ZOO,)),
    _m("power.window_s", "s", "self:power.window", (ZOO,)),
    _m("power.windows", "count", "calls:power.window", (ZOO,)),
    _m("power.dvfs_s", "s", "self:power.dvfs", (ZOO,)),
    _m("dma.bytes", "bytes", "count:dma.bytes", (ZOO,)),
    _m("memory.icache_hit_rate", "fraction", "count:memory.icache_hits",
       (ZOO,), den="count:memory.icache_lookups", better="higher"),
    _m("serving.fleet_init_s", "s", "self:serving.fleet_init", (FLEET, CHAOS)),
    _m("serving.fleet_run_s", "s", "self:serving.fleet_run", (FLEET, CHAOS)),
    _m("serving.fleet_ns_per_req", "ns", "incl:serving.fleet_run", (FLEET,),
       den="count:serving.fleet_requests", scale=1e9),
    _m("serving.server_run_s", "s", "self:serving.server_run", (SERVER,)),
    _m("serving.server_ns_per_req", "ns", "incl:serving.server_run",
       (SERVER,), den="count:serving.server_requests", scale=1e9),
    _m("serving.measure_s", "s", "self:serving.measure", (FLEET, SERVER)),
    _m("serving.measures", "count", "calls:serving.measure", (FLEET, SERVER)),
    _m("serving.loadgen_s", "s", "self:serving.loadgen",
       (FLEET, SERVER, CHAOS)),
    _m("serving.shed_frac", "fraction", "count:serving.shed",
       (FLEET, SERVER, CHAOS), den="count:serving.offered"),
    _m("routing.pick_s", "s", "self:routing.pick", (FLEET, CHAOS)),
    _m("routing.picks", "count", "calls:routing.pick", (FLEET, CHAOS)),
    _m("routing.update_s", "s", "self:routing.update", (FLEET, CHAOS)),
    _m("admission.decide_s", "s", "self:admission.decide", (FLEET, CHAOS)),
    _m("admission.decisions", "count", "calls:admission.decide",
       (FLEET, CHAOS)),
    _m("autoscale.evaluate_s", "s", "self:autoscale.evaluate", (CHAOS,),
       detached_zero=True),
    _m("powercap.window_s", "s", "self:powercap.window", (CHAOS,),
       detached_zero=True),
    _m("sdc.screen_s", "s", "self:sdc.screen", (CHAOS,), detached_zero=True),
    _m("faults.records", "count", "calls:faults.record", (CHAOS,),
       detached_zero=True),
    _m("obs.spans", "count", "calls:obs.begin", (CHAOS,), detached_zero=True),
    _m("obs.begin_s", "s", "self:obs.begin", (CHAOS,), detached_zero=True),
    _m("chaos.scenario_s", "s", "self:chaos.scenario", (CHAOS,),
       detached_zero=True),
    _m("chaos.invariants_s", "s", "self:chaos.invariants", (CHAOS,),
       detached_zero=True),
    _m("host.gc_s", "s", "count:host.gc_s", WORKLOADS),
    _m("host.gc_collections", "count", "count:host.gc_collections", WORKLOADS),
    _m("host.unattributed_frac", "fraction", None),
    _m("host.spans_per_pass", "count", None),
    _m("host.traced_pass_s", "s", None),
    _m("host.untraced_pass_s", "s", None),
    _m("host.tracing_overhead_s", "s", None),
)

# -- what gets wrapped ------------------------------------------------------

#: Modules to import before patching, so every binding exists to be found.
MODULES = (
    "repro", "repro.caching", "repro.chaos", "repro.compiler.lowering",
    "repro.compiler.pipeline", "repro.compiler.tensorize",
    "repro.compiler.tiling", "repro.faults.injector", "repro.graph.ir",
    "repro.graph.passes", "repro.models.zoo", "repro.obs.tracing",
    "repro.power.cpme", "repro.power.dvfs", "repro.runtime.executor",
    "repro.runtime.runtime", "repro.serving.admission",
    "repro.serving.autoscale", "repro.serving.fleet",
    "repro.serving.loadgen", "repro.serving.powercap",
    "repro.serving.routing", "repro.serving.sdc", "repro.serving.server",
    "repro.serving.workload", "repro.sim.kernel", "repro.sim.parallel",
    "repro.sim.trace",
)


def _kernels(rec, _args, model, _token):
    rec.add("compiler.kernels", len(model.kernels))


def _cache_lookup(rec, args, value, _token):
    from repro.caching import CompileCache

    kind = "compile" if isinstance(args[0], CompileCache) else "measure"
    rec.add(f"caching.{kind}_lookups", 1)
    if value is not None:
        rec.add(f"caching.{kind}_hits", 1)


def _launch_retries(rec, _args, result, _token):
    rec.add("runtime.retries", result.counters.get("launch_retries", 0))


def _executor_counters(rec, _args, result, _token):
    counters = result.counters
    hits = counters["icache_hits"] + counters["icache_prefetch_hits"]
    rec.add("dma.bytes", counters["dma_bytes"])
    rec.add("memory.icache_hits", hits)
    rec.add("memory.icache_lookups", hits + counters["icache_misses"])


def _events_before(args):
    return args[0].events_dispatched


def _events_after(rec, args, _result, dispatched_before):
    rec.add("sim.events", args[0].events_dispatched - dispatched_before)


def _fleet_report(rec, _args, report, _token):
    offered = sum(stats.offered for stats in report.tenants.values())
    rec.add("serving.fleet_requests", offered)
    rec.add("serving.offered", offered)
    rec.add("serving.shed", sum(s.shed for s in report.tenants.values()))


def _server_reports(rec, _args, reports, _token):
    offered = sum(report.offered for report in reports.values())
    rec.add("serving.server_requests", offered)
    rec.add("serving.offered", offered)
    rec.add("serving.shed", sum(r.shed for r in reports.values()))


#: (module, function, span name, before hook, after hook)
FUNCTIONS = (
    ("repro.models.zoo", "build", "models.build", None, None),
    ("repro.graph.passes", "optimize", "graph.optimize", None, None),
    ("repro.compiler.lowering", "lower_graph", "compiler.lower", None,
     _kernels),
    ("repro.compiler.tiling", "tune_tiling", "compiler.tiling", None, None),
    ("repro.compiler.tensorize", "tensorize_gemm", "compiler.tensorize",
     None, None),
    ("repro.serving.server", "measure_service_time_ns", "serving.measure",
     None, None),
    ("repro.serving.loadgen", "generate_load", "serving.loadgen", None, None),
    ("repro.serving.workload", "generate_trace", "serving.loadgen", None,
     None),
    ("repro.chaos", "run_scenario", "chaos.scenario", None, None),
)

#: (module, class, method, span name, before hook, after hook)
METHODS = (
    ("repro.graph.ir", "Graph", "validate", "graph.validate", None, None),
    ("repro.graph.ir", "Graph", "bind", "graph.bind", None, None),
    ("repro.graph.ir", "Graph", "structural_hash", "graph.hash", None, None),
    ("repro.caching", "_KeyedCache", "get", "caching.get", None,
     _cache_lookup),
    ("repro.runtime.runtime", "Device", "open", "runtime.open", None, None),
    ("repro.runtime.runtime", "Device", "launch", "runtime.launch", None,
     _launch_retries),
    ("repro.runtime.executor", "Executor", "run", "runtime.executor", None,
     _executor_counters),
    ("repro.sim.kernel", "Simulator", "run", "sim.run", _events_before,
     _events_after),
    ("repro.sim.trace", "Trace", "busy_time", "sim.busy_query", None, None),
    ("repro.power.cpme", "Cpme", "run_window", "power.window", None, None),
    ("repro.power.dvfs", "DvfsController", "update", "power.dvfs", None,
     None),
    ("repro.serving.fleet", "FleetManager", "__init__", "serving.fleet_init",
     None, None),
    ("repro.serving.fleet", "FleetManager", "run", "serving.fleet_run", None,
     _fleet_report),
    ("repro.serving.server", "InferenceServer", "run", "serving.server_run",
     None, _server_reports),
    ("repro.serving.routing", "HeapRouter", "pick", "routing.pick", None,
     None),
    ("repro.serving.routing", "HeapRouter", "update", "routing.update", None,
     None),
    ("repro.serving.admission", "AdmissionController", "decide",
     "admission.decide", None, None),
    ("repro.serving.autoscale", "Autoscaler", "evaluate",
     "autoscale.evaluate", None, None),
    ("repro.serving.powercap", "FleetPowerGovernor", "close_window",
     "powercap.window", None, None),
    ("repro.serving.sdc", "SdcTracker", "screen_replica", "sdc.screen", None,
     None),
    ("repro.faults.injector", "FaultInjector", "record", "faults.record",
     None, None),
    ("repro.obs.tracing", "Tracer", "begin", "obs.begin", None, None),
)


def install(rec) -> None:
    """Wrap every timed call; ``rec.restore()`` undoes all of it."""
    for module in MODULES:
        importlib.import_module(module)
    for module, attr, name, before, after in FUNCTIONS:
        if not rec.patch_function(module, attr, name, before=before,
                                  after=after):
            raise RuntimeError(f"{module}.{attr}: no binding to patch")
    for module, cls_name, attr, name, before, after in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        rec.patch_method(cls, attr, name, before=before, after=after)
    # The invariant catalogue is a tuple of (name, check) that
    # run_scenario iterates; the checks are never looked up by name.
    chaos = sys.modules["repro.chaos"]
    rec.patch_value(
        chaos, "INVARIANTS",
        tuple(
            (label, rec.wrap("chaos.invariants", check))
            for label, check in chaos.INVARIANTS
        ),
    )


# -- evaluation -------------------------------------------------------------


def evaluate(rec) -> tuple[dict[str, float], dict[str, float], dict]:
    """``(values, activity, host)`` from a finished traced run.

    ``values`` holds every sourced metric (set-up + mean timed pass);
    ``activity`` the calls or counter value behind each one, for the
    zero-call check; ``host`` the pass-level figures (``pass_s`` list,
    unattributed share, spans per pass).
    """
    name_ids, starts, ends, parents = rec.arrays()
    names = np.array(rec.names)
    durations = ends - starts
    selfs = self_times(starts, ends, parents)
    is_root = parents < 0
    root_names = names[name_ids[root_of(parents)]]
    pass_roots = np.flatnonzero(is_root & (names[name_ids] == "pass"))
    passes = max(len(pass_roots), 1)

    def per_phase(phase: str, weights) -> np.ndarray:
        inside = (root_names == phase) & ~is_root
        return np.bincount(name_ids[inside], weights=weights[inside],
                           minlength=len(names))

    totals = {
        kind: per_phase("setup", weights) + per_phase("pass", weights) / passes
        for kind, weights in (("self", selfs), ("incl", durations),
                              ("calls", np.ones(len(starts))))
    }
    counts: dict[str, float] = {}
    for index, delta in rec.root_counts.items():
        phase = names[name_ids[index]]
        if phase not in ("setup", "pass"):
            continue
        share = 1.0 if phase == "setup" else 1.0 / passes
        for key, value in delta.items():
            counts[key] = counts.get(key, 0.0) + value * share

    code = {name: i for i, name in enumerate(rec.names)}

    def source(spec: str) -> tuple[float, float]:
        kind, key = spec.split(":", 1)
        if kind == "count":
            value = counts.get(key, 0.0)
            return value, value
        index = code.get(key)
        if index is None:
            return 0.0, 0.0
        return float(totals[kind][index]), float(totals["calls"][index])

    values: dict[str, float] = {}
    activity: dict[str, float] = {}
    for metric in METRICS:
        if metric.num is None:
            continue
        num, num_calls = source(metric.num)
        if metric.den is None:
            values[metric.name] = metric.scale * num
            activity[metric.name] = num_calls
        else:
            den, den_calls = source(metric.den)
            values[metric.name] = metric.scale * num / den if den else 0.0
            activity[metric.name] = den_calls

    in_pass = (root_names == "pass") & ~is_root
    host = {
        "pass_s": durations[pass_roots].tolist(),
        "unattributed_frac": (
            float(selfs[pass_roots].sum() / durations[pass_roots].sum())
            if len(pass_roots) else 0.0
        ),
        "spans_per_pass": float(in_pass.sum()) / passes,
    }
    return values, activity, host


def load_failures(workload: str, values, activity) -> list[str]:
    """Declared layers that recorded nothing, and detached ones that did."""
    failures = []
    for metric in METRICS:
        if metric.num is None:
            continue
        if workload in metric.loads and not activity[metric.name]:
            failures.append(
                f"{metric.name}: zero calls on {workload}, which declares it"
            )
        if (
            metric.detached_zero
            and workload not in metric.loads
            and values[metric.name] != 0.0
        ):
            failures.append(
                f"{metric.name}: reads {values[metric.name]} on detached "
                f"workload {workload}, must be 0"
            )
    return failures
