"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``specs`` — print Table I / Table IV device specifications,
- ``models`` — list the Table III zoo with compile statistics,
- ``run MODEL`` — simulate one inference on the i20 (or i10),
- ``estimate MODEL`` — analytical latency on every device,
- ``evaluate`` — the full Fig. 13 / Fig. 15 comparison table,
- ``faults`` — a fault-injection campaign: one faulty launch with RAS
  retries, then a two-tenant serving run under the same fault plan,
- ``profile MODEL`` — per-category and per-engine tables read back from
  the unified metrics registry (``repro.obs``); ``--fleet`` appends
  fleet-resilience and fleet-power tables from two chaos scenarios
  (exit 1 if either breaks an invariant),
- ``trace MODEL -o trace.json`` — whole-stack Chrome trace (serving /
  runtime / sim / fault / power rows) for chrome://tracing or Perfetto,
- ``chaos`` — the deterministic chaos suite: scripted fault storms run
  through the fleet manager, with declared invariants checked after every
  scenario (``--quick`` for the CI smoke subset; exit 1 on violation),
- ``fuzz`` — the differential graph fuzzer: seeded random graphs through
  the hardened compile pipeline, checking "typed error or
  numerically-correct compile" on every case (``--quick`` for the CI
  smoke subset, ``--replay`` for the regression corpus; exit 1 on
  violation),
- ``loadgen`` — deterministic open-loop load generation: per-class
  arrival processes (Poisson / diurnal / flash-crowd) over synthetic
  user populations, summarized per (tenant, SLO class); ``--json`` for
  the canonical byte-stable report (``--quick`` for the CI smoke
  variant).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_specs(_args) -> int:
    from repro.perfmodel.devices import ALL_DEVICES

    header = (f"{'Device':<16} {'FP32':>6} {'FP16':>6} {'INT8':>6} "
              f"{'GB':>4} {'GB/s':>6} {'TDP':>5} {'nm':>3}  Link")
    print(header)
    print("-" * len(header))
    for spec in ALL_DEVICES:
        print(f"{spec.name:<16} {spec.fp32_tflops:>6.1f} "
              f"{spec.fp16_tflops:>6.1f} {spec.int8_tops:>6.1f} "
              f"{spec.memory_gb:>4} {spec.bandwidth_gbps:>6.0f} "
              f"{spec.tdp_watts:>5.0f} {spec.technology_nm:>3}  "
              f"{spec.interconnect}")
    return 0


def _cmd_models(_args) -> int:
    from repro.compiler.lowering import lower_graph
    from repro.core.config import dtu2_config
    from repro.graph.passes import optimize
    from repro.graph.shape_inference import bind_shapes
    from repro.models.zoo import TABLE_III, build

    chip = dtu2_config()
    header = (f"{'Model':<14} {'Category':<20} {'Input':<10} {'Nodes':>6} "
              f"{'Kernels':>8} {'GFLOPs':>8} {'WeightMB':>9}")
    print(header)
    print("-" * len(header))
    for entry in TABLE_III:
        graph = bind_shapes(build(entry.name), batch=1)
        nodes = len(graph.nodes)
        optimized, _ = optimize(graph)
        compiled = lower_graph(optimized, chip)
        print(f"{entry.name:<14} {entry.category:<20} {entry.input_size:<10} "
              f"{nodes:>6} {len(compiled.kernels):>8} "
              f"{compiled.total_flops / 1e9:>8.1f} "
              f"{graph.weight_bytes() / 1e6:>9.1f}")
    return 0


def _cmd_run(args) -> int:
    from repro.models.zoo import MODEL_NAMES, build
    from repro.runtime.profiler import Profile
    from repro.runtime.runtime import Device

    if args.model not in MODEL_NAMES:
        print(f"unknown model {args.model!r}; choose from {list(MODEL_NAMES)}",
              file=sys.stderr)
        return 2
    device = Device.open(args.device)
    compiled = device.compile(build(args.model), batch=args.batch)
    result = device.launch(compiled, num_groups=args.groups)
    print(f"{args.model} on {device.accelerator.chip.name} "
          f"(batch {args.batch}, {args.groups or 'auto'} groups):")
    print(f"  latency      {result.latency_ms:.3f} ms")
    print(f"  throughput   {result.throughput_samples_per_s(args.batch):.0f} samples/s")
    print(f"  mean power   {result.mean_power_watts:.1f} W")
    print(f"  energy       {result.energy_joules * 1e3:.2f} mJ")
    print(f"  mean clock   {result.mean_frequency_ghz:.2f} GHz")
    if args.profile:
        print()
        print(Profile(compiled, result).summary())
    return 0


def _cmd_estimate(args) -> int:
    from repro.models.zoo import MODEL_NAMES
    from repro.perfmodel.latency import estimate_model

    if args.model not in MODEL_NAMES:
        print(f"unknown model {args.model!r}; choose from {list(MODEL_NAMES)}",
              file=sys.stderr)
        return 2
    print(f"{'Device':<6} {'latency ms':>11} {'samples/s':>10}")
    for device in ("i20", "i10", "t4", "a10"):
        estimate = estimate_model(args.model, device, batch=args.batch)
        print(f"{device:<6} {estimate.latency_ms:>11.3f} "
              f"{estimate.throughput_samples_per_s:>10.0f}")
    return 0


def _cmd_evaluate(_args) -> int:
    from repro.models.zoo import MODEL_NAMES, entry
    from repro.perfmodel.latency import (
        energy_efficiency_ratio,
        geomean,
        speedup,
    )

    header = (f"{'DNN':<16} {'i20/T4':>8} {'i20/A10':>8} "
              f"{'eff/T4':>8} {'eff/A10':>8}")
    print(header)
    print("-" * len(header))
    perf_t4, perf_a10, eff_t4, eff_a10 = [], [], [], []
    for model in MODEL_NAMES:
        s4 = speedup(model, "i20", "t4")
        sa = speedup(model, "i20", "a10")
        e4 = energy_efficiency_ratio(model, "i20", "t4")
        ea = energy_efficiency_ratio(model, "i20", "a10")
        perf_t4.append(s4)
        perf_a10.append(sa)
        eff_t4.append(e4)
        eff_a10.append(ea)
        print(f"{entry(model).display_name:<16} {s4:>7.2f}x {sa:>7.2f}x "
              f"{e4:>7.2f}x {ea:>7.2f}x")
    print("-" * len(header))
    print(f"{'GeoMean':<16} {geomean(perf_t4):>7.2f}x {geomean(perf_a10):>7.2f}x "
          f"{geomean(eff_t4):>7.2f}x {geomean(eff_a10):>7.2f}x")
    print(f"{'paper':<16} {'2.22x':>8} {'1.16x':>8} {'1.04x':>8} {'1.17x':>8}")
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import FaultInjector, FaultPlan, TransientFault
    from repro.models.zoo import MODEL_NAMES, build
    from repro.runtime.runtime import Device
    from repro.serving import (
        InferenceServer,
        RasConfig,
        TenantConfig,
        TrafficPattern,
        generate_trace,
    )

    if args.model not in MODEL_NAMES:
        print(f"unknown model {args.model!r}; choose from {list(MODEL_NAMES)}",
              file=sys.stderr)
        return 2
    plan = FaultPlan(
        seed=args.seed,
        dma_corrupt_rate=args.dma_rate,
        dma_abort_rate=args.dma_rate / 10.0,
        ecc_ce_rate=args.ecc_rate,
        ecc_ue_rate=args.ecc_rate / 10.0,
        core_hang_rate=args.hang_rate,
        sync_loss_rate=args.sync_rate,
    )

    # Part 1: one launch on the detailed simulator, with and without faults.
    print(f"fault plan: dma {args.dma_rate:.2%}/txn, ecc {args.ecc_rate:.2%}"
          f"/transfer, hang {args.hang_rate:.2%}/kernel, seed {args.seed}")
    clean = Device.open(args.device)
    compiled = clean.compile(build(args.model), batch=1)
    baseline = clean.launch(compiled, num_groups=args.groups)
    faulty = Device.open(args.device)
    injector = FaultInjector(plan)
    faulty.accelerator.attach_faults(injector)
    compiled_faulty = faulty.compile(build(args.model), batch=1)
    try:
        result = faulty.launch(
            compiled_faulty, num_groups=args.groups, max_retries=args.retries
        )
        print(f"{args.model}: clean {baseline.latency_ms:.3f} ms -> faulty "
              f"{result.latency_ms:.3f} ms "
              f"({int(result.counters.get('launch_retries', 0))} launch retries)")
    except TransientFault as fault:
        print(f"{args.model}: launch failed after {args.retries} retries: {fault}")
    recovered = sum(record.recovered for record in injector.records)
    print(f"  faults injected {len(injector.records)} "
          f"(recovered {recovered}, fatal {len(injector.records) - recovered})")

    # Part 2: two-tenant serving campaign under the same plan.
    tenants = [
        TenantConfig("a", args.model, groups=2, max_batch=4, sla_ms=args.sla_ms),
        TenantConfig("b", "unet", groups=3, sla_ms=None),
    ]
    ras = RasConfig(max_retries=args.retries, queue_depth_limit=args.queue_limit)
    server = InferenceServer(tenants, fault_plan=plan, ras=ras)
    trace = generate_trace(
        [TrafficPattern("a", args.rate), TrafficPattern("b", args.rate / 5.0)],
        duration_s=args.duration,
        seed=args.seed,
    )
    reports = server.run(trace)
    header = (f"{'tenant':<8} {'ok':>6} {'fail':>5} {'shed':>5} {'retry':>5} "
              f"{'degr':>5} {'p99 ms':>8} {'avail':>7} {'sla viol':>9}")
    print()
    print(header)
    print("-" * len(header))
    for name, report in reports.items():
        print(f"{name:<8} {report.completed:>6} {report.failed:>5} "
              f"{report.shed:>5} {report.retried:>5} {report.degraded:>5} "
              f"{report.p99_ms:>8.2f} {report.availability:>6.1%} "
              f"{report.sla_violation_rate:>8.1%}")
    return 0


def _cmd_profile(args) -> int:
    from repro.models.zoo import MODEL_NAMES, build
    from repro.obs import Observability
    from repro.runtime.runtime import Device

    if args.model not in MODEL_NAMES:
        print(f"unknown model {args.model!r}; choose from {list(MODEL_NAMES)}",
              file=sys.stderr)
        return 2
    obs = Observability()
    device = Device.open(args.device, obs=obs)
    compiled = device.compile(
        build(args.model), batch=args.batch, verify_fusion=True
    )
    result = device.launch(compiled, num_groups=args.groups)
    registry = obs.metrics

    print(f"{args.model} on {device.accelerator.chip.name} "
          f"(batch {args.batch}, {args.groups or 'auto'} groups): "
          f"{result.latency_ms:.3f} ms, "
          f"{registry.get('power_mean_watts').value():.1f} W mean, "
          f"{registry.get('power_energy_joules_total').total() * 1e3:.2f} mJ, "
          f"{registry.get('power_mean_frequency_ghz').value():.2f} GHz")
    print()

    # Per-category table, read back from the registry the executor filled.
    duration = registry.get("runtime_kernel_duration_ns")
    kernels = registry.get("runtime_kernels_total")
    flops = registry.get("runtime_kernel_flops_total")
    rows = []
    for labels, series in duration.samples():
        category = labels["category"]
        rows.append((
            category,
            int(kernels.value(category=category)),
            series.sum,
            flops.value(category=category),
        ))
    total_time = sum(row[2] for row in rows) or 1.0
    total_flops = sum(row[3] for row in rows) or 1.0
    header = (f"{'category':<12} {'kernels':>8} {'time us':>10} "
              f"{'time %':>8} {'flops %':>8}")
    print(header)
    print("-" * len(header))
    for category, count, time_ns, category_flops in sorted(
        rows, key=lambda row: row[2], reverse=True
    ):
        print(f"{category:<12} {count:>8} {time_ns / 1e3:>10.1f} "
              f"{time_ns / total_time:>8.1%} "
              f"{category_flops / total_flops:>8.1%}")
    print()

    # Per-engine table: busy time per engine family over the run.
    busy = registry.get("sim_engine_busy_ns_total")
    by_family: dict[str, tuple[float, int]] = {}
    for labels, value in busy.samples():
        family = labels["engine"]
        total, tracks = by_family.get(family, (0.0, 0))
        by_family[family] = (total + value, tracks + 1)
    header = f"{'engine':<12} {'groups':>7} {'busy us':>10} {'duty %':>8}"
    print(header)
    print("-" * len(header))
    for family, (busy_ns, tracks) in sorted(
        by_family.items(), key=lambda item: item[1][0], reverse=True
    ):
        duty = busy_ns / (result.latency_ns * tracks) if result.latency_ns else 0.0
        print(f"{family:<12} {tracks:>7} {busy_ns / 1e3:>10.1f} {duty:>8.1%}")
    print()

    # Engine-core table: dispatch + fast-path accounting the executor
    # exported after the launch (docs/sim-internals.md); pool reuse is
    # process-wide Timeout interning.
    from repro.sim.parallel import export_shard_metrics

    export_shard_metrics(registry)
    dispatched = registry.get("sim_events_dispatched")
    steps = registry.get("sim_time_steps")
    pool_hits = registry.get("sim_timeout_pool_hits")
    pool_misses = registry.get("sim_timeout_pool_misses")
    hits = pool_hits.value() if pool_hits is not None else 0.0
    misses = pool_misses.value() if pool_misses is not None else 0.0
    header = f"{'engine core':<28} {'value':>10}"
    print(header)
    print("-" * len(header))
    engine = device.accelerator.sim.engine
    print(f"{'engine':<28} {engine:>10}")
    print(f"{'events dispatched':<28} "
          f"{dispatched.value(engine=engine) if dispatched else 0.0:>10.0f}")
    print(f"{'clock time steps':<28} "
          f"{steps.value(engine=engine) if steps else 0.0:>10.0f}")
    pool_rate = hits / (hits + misses) if hits + misses else 0.0
    print(f"{'timeout pool reuse rate':<28} {pool_rate:>10.1%}")
    shard_wall = registry.get("sim_shard_wall_seconds")
    if shard_wall is not None:
        for labels, value in shard_wall.samples():
            print(f"{'shard ' + labels['shard'] + ' wall s':<28} "
                  f"{value:>10.4f}")
    print()

    # Process-wide cache table (compile + measurement), mirrored into the
    # registry as gauges so exporters see the same numbers.
    from repro.caching import export_cache_metrics

    export_cache_metrics(registry)
    entries = registry.get("cache_entries")
    hits = registry.get("cache_hits")
    misses = registry.get("cache_misses")
    rate = registry.get("cache_hit_rate")
    header = (f"{'cache':<12} {'entries':>8} {'hits':>7} "
              f"{'misses':>7} {'hit %':>7}")
    print(header)
    print("-" * len(header))
    for name in ("compile", "measurement"):
        print(f"{name:<12} {int(entries.value(cache=name)):>8} "
              f"{int(hits.value(cache=name)):>7} "
              f"{int(misses.value(cache=name)):>7} "
              f"{rate.value(cache=name):>7.1%}")
    print()

    # Fusion equivalence guard: the compile above ran with
    # verify_fusion=True, so check outcomes (and any fallbacks) are in
    # the same registry. On a cache hit the guard already ran when the
    # entry was built, so zero checks here just means "cached".
    header = f"{'fusion guard':<28} {'value':>8}"
    print(header)
    print("-" * len(header))
    checks = registry.get("fusion_guard_checks_total")
    for outcome in ("ok", "mismatch", "skipped"):
        value = checks.value(result=outcome) if checks is not None else 0.0
        print(f"{'checks{result=' + outcome + '}':<28} {value:>8.0f}")
    fallbacks = registry.get("fusion_guard_fallbacks_total")
    print(f"{'fallbacks':<28} "
          f"{fallbacks.total() if fallbacks is not None else 0.0:>8.0f}")

    return _profile_fleet(obs) if args.fleet else 0


def _profile_fleet(obs) -> int:
    """The ``profile --fleet`` tables, printed from ``metric_samples``.

    replica-kill runs on ``obs`` so its fleet series land next to the
    launch metrics; power-cap-storm runs on a hub of its own, since two
    runs on one hub add up their counters. Prints every invariant
    violation and returns 1 if either scenario fails.
    """
    from repro.chaos import SCENARIOS, run_scenario
    from repro.obs import Observability
    from repro.serving.fleet import metric_samples

    kill = run_scenario(SCENARIOS["replica-kill"], seed=0, obs=obs)
    print()
    header = f"{'fleet metric':<28} {'value':>8}"
    print(header)
    print("-" * len(header))
    for _kind, name, _help, _unit, labels, value in metric_samples(
        kill.report, admission=False, autoscaler=False
    ):
        if not labels:
            print(f"{name:<28} {value:>8.0f}")
        elif name == "fleet_availability":
            print(f"{'fleet_availability{' + labels['tenant'] + '}':<28} "
                  f"{value:>8.1%}")

    storm = run_scenario(
        SCENARIOS["power-cap-storm"], seed=0, obs=Observability()
    )
    values = {
        (name, labels.get("device")): value
        for _kind, name, _help, _unit, labels, value in metric_samples(
            storm.report, admission=False, autoscaler=False
        )
    }
    print()
    header = f"{'fleet power':<28} {'value':>10}"
    print(header)
    print("-" * len(header))
    for metric, fmt in (
        ("fleet_power_cap_watts", "{:>10.1f}"),
        ("fleet_power_draw_watts", "{:>10.1f}"),
        ("powercap_throttle_ratio", "{:>10.3f}"),
        ("energy_per_inference_mj", "{:>10.1f}"),
    ):
        print(f"{metric:<28} {fmt.format(values[metric, None])}")
    print()
    header = (f"{'device':<10} {'draw W':>8} {'cap W':>8} "
              f"{'throttle':>8}")
    print(header)
    print("-" * len(header))
    for name in sorted(storm.report.power["devices"]):
        print(f"{name:<10} "
              f"{values['device_power_draw_watts', name]:>8.1f} "
              f"{values['device_power_cap_watts', name]:>8.1f} "
              f"{values['device_power_throttle', name]:>8.3f}")
    for result in (kill, storm):
        for violation in result.violations:
            print(f"{result.scenario.name}: {violation}")
    return 0 if kill.passed and storm.passed else 1


def _cmd_trace(args) -> int:
    from repro.faults import FaultPlan
    from repro.models.zoo import MODEL_NAMES
    from repro.obs import Observability, save_chrome_trace
    from repro.serving import (
        InferenceServer,
        RasConfig,
        TenantConfig,
        TrafficPattern,
        generate_trace,
    )

    if args.model not in MODEL_NAMES:
        print(f"unknown model {args.model!r}; choose from {list(MODEL_NAMES)}",
              file=sys.stderr)
        return 2
    obs = Observability()
    # Transient-only fault plan: events show up in the fault track without
    # ever failing the measurement launch (fatal rates stay zero).
    plan = FaultPlan(
        seed=args.seed,
        dma_corrupt_rate=args.fault_rate,
        ecc_ce_rate=args.fault_rate,
        core_slowdown_rate=args.fault_rate / 2.0,
        sync_loss_rate=args.fault_rate / 4.0,
    )
    tenants = [
        TenantConfig("primary", args.model, groups=args.groups, max_batch=4)
    ]
    server = InferenceServer(
        tenants,
        obs=obs,
        fault_plan=plan,
        measurement_fault_plan=plan,
        ras=RasConfig(max_retries=2, queue_depth_limit=64),
    )
    requests = generate_trace(
        [TrafficPattern("primary", args.rate)],
        duration_s=args.duration,
        seed=args.seed,
    )
    reports = server.run(requests)
    path = save_chrome_trace(obs.tracer, args.output)

    report = reports["primary"]
    print(f"{args.model}: {report.completed} requests served "
          f"({report.retried} retried, {report.shed} shed), "
          f"p99 {report.p99_ms:.2f} ms")
    for layer in sorted(obs.tracer.layers()):
        spans = len(obs.tracer.spans_in(layer))
        events = sum(1 for e in obs.tracer.events if e.layer == layer)
        samples = sum(
            1 for s in obs.tracer.counter_samples if s.layer == layer
        )
        print(f"  {layer:<8} {spans:>5} spans  {events:>4} events  "
              f"{samples:>4} samples")
    print(f"wrote {path} — load it in chrome://tracing or "
          f"https://ui.perfetto.dev")
    return 0


def _cmd_chaos(args) -> int:
    from repro.chaos import (
        SCENARIOS,
        declared_invariants,
        render_table,
        run_suite,
        scenario_names,
    )

    if args.list:
        width = max(len(name) for name in SCENARIOS)
        header = f"{'scenario':<{width}} {'quick':>5}  description"
        print(header)
        print("-" * 72)
        for name, scenario in SCENARIOS.items():
            quick = "yes" if scenario.quick else "no"
            print(f"{name:<{width}} {quick:>5}  {scenario.description}")
            invariants = ", ".join(declared_invariants(scenario))
            print(f"{'':<{width}} {'':>5}  invariants: {invariants}")
        return 0

    names = args.scenario or None
    if names is not None:
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s) {unknown}; choose from "
                  f"{scenario_names()}", file=sys.stderr)
            return 2
    suite = run_suite(
        names=names, seed=args.seed, quick=args.quick,
        measured=args.measured, workers=args.workers,
    )
    if args.json:
        print(suite.to_json())
    else:
        print(render_table(suite))
    return 0 if suite.passed else 1


def _cmd_fuzz(args) -> int:
    from repro.graph.fuzz import (
        MUTATIONS,
        replay_corpus,
        run_fuzz,
        write_corpus,
    )

    if args.list:
        print("mutations:")
        for name in sorted(MUTATIONS):
            print(f"  {name}")
        return 0
    if args.write_corpus:
        paths = write_corpus(seed=args.seed)
        for path in paths:
            print(f"wrote {path}")
        return 0
    if args.replay:
        results = replay_corpus()
        failed = [r for r in results if r["status"] == "fail"]
        if args.json:
            import json as json_module

            print(json_module.dumps(results, indent=2, sort_keys=True))
        else:
            for result in results:
                detail = f"  ({result['detail']})" if result["detail"] else ""
                print(f"{result['status']:<10} {result['file']}{detail}")
            print(f"{len(results) - len(failed)}/{len(results)} corpus "
                  "entries raise their recorded typed error")
        return 1 if failed else 0

    budget = 25 if args.quick else args.budget
    report = run_fuzz(seed=args.seed, budget=budget)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_loadgen(args) -> int:
    import json as json_module

    from repro.serving.loadgen import demo_specs, generate_load, summarize_trace

    scale = 0.25 if args.quick else args.scale
    duration = 0.2 if args.quick else args.duration
    specs = demo_specs(scale=scale)
    trace = generate_load(specs, duration_s=duration, seed=args.seed)
    summaries = summarize_trace(trace, duration_s=duration)
    if args.json:
        payload = {
            "seed": args.seed,
            "duration_s": duration,
            "scale": scale,
            "requests": len(trace),
            "classes": [summary.to_dict() for summary in summaries],
        }
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"open-loop load: {len(trace)} requests over {duration:g}s "
          f"(seed {args.seed}, scale {scale:g})")
    print(f"{'tenant':<10} {'class':<12} {'requests':>8} {'mean r/s':>9} "
          f"{'peak r/s':>9} {'users':>6} {'sessions':>8}")
    for summary in summaries:
        print(f"{summary.tenant:<10} {summary.slo_class:<12} "
              f"{summary.requests:>8} {summary.mean_rate_per_s:>9.1f} "
              f"{summary.peak_rate_per_s:>9.1f} {summary.users:>6} "
              f"{summary.sessions:>8}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cloudblazer i20 / DTU 2.0 reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("specs", help="device spec tables (I & IV)")
    commands.add_parser("models", help="the Table III model zoo")

    run = commands.add_parser("run", help="simulate one inference")
    run.add_argument("model")
    run.add_argument("--device", default="i20", choices=("i20", "i10"))
    run.add_argument("--batch", type=int, default=1)
    run.add_argument("--groups", type=int, default=None)
    run.add_argument("--profile", action="store_true")

    estimate = commands.add_parser(
        "estimate", help="analytical latency on every device"
    )
    estimate.add_argument("model")
    estimate.add_argument("--batch", type=int, default=1)

    commands.add_parser("evaluate", help="Fig. 13/15 comparison table")

    faults = commands.add_parser(
        "faults", help="fault-injection campaign with RAS recovery"
    )
    faults.add_argument("--model", default="resnet50")
    faults.add_argument("--device", default="i20", choices=("i20", "i10"))
    faults.add_argument("--groups", type=int, default=2)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--dma-rate", type=float, default=0.01,
                        help="corruption probability per DMA transaction")
    faults.add_argument("--ecc-rate", type=float, default=0.01,
                        help="correctable-ECC probability per transfer")
    faults.add_argument("--hang-rate", type=float, default=0.001,
                        help="core-hang probability per kernel per group")
    faults.add_argument("--sync-rate", type=float, default=0.001,
                        help="lost-sync probability per operation")
    faults.add_argument("--retries", type=int, default=3)
    faults.add_argument("--queue-limit", type=int, default=32)
    faults.add_argument("--sla-ms", type=float, default=50.0)
    faults.add_argument("--rate", type=float, default=100.0,
                        help="tenant-a request rate per second")
    faults.add_argument("--duration", type=float, default=0.5,
                        help="trace duration in seconds")

    profile = commands.add_parser(
        "profile", help="per-category/per-engine tables from the metrics registry"
    )
    profile.add_argument("model")
    profile.add_argument("--device", default="i20", choices=("i20", "i10"))
    profile.add_argument("--batch", type=int, default=1)
    profile.add_argument("--groups", type=int, default=None)
    profile.add_argument("--fleet", action="store_true",
                         help="append fleet-resilience gauges from a "
                              "replica-kill chaos demo on the same registry")

    trace = commands.add_parser(
        "trace", help="whole-stack Chrome trace for chrome://tracing / Perfetto"
    )
    trace.add_argument("model")
    trace.add_argument("-o", "--output", default="trace.json")
    trace.add_argument("--groups", type=int, default=2)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--fault-rate", type=float, default=0.02,
                       help="transient fault rate per hardware event")
    trace.add_argument("--rate", type=float, default=200.0,
                       help="request rate per second")
    trace.add_argument("--duration", type=float, default=0.05,
                       help="request-trace duration in seconds")

    chaos = commands.add_parser(
        "chaos", help="deterministic chaos suite over the fleet manager"
    )
    chaos.add_argument("--quick", action="store_true",
                       help="run only the CI smoke subset")
    chaos.add_argument("--seed", type=int, default=0,
                       help="root seed; every scenario/trace stream derives "
                            "from it")
    chaos.add_argument("--scenario", action="append", default=None,
                       help="run a specific scenario (repeatable)")
    chaos.add_argument("--list", action="store_true",
                       help="list built-in scenarios and exit")
    chaos.add_argument("--json", action="store_true",
                       help="emit the canonical JSON suite report")
    chaos.add_argument("--measured", action="store_true",
                       help="use detailed-simulator service times instead "
                            "of the synthetic defaults")
    chaos.add_argument("--workers", type=int, default=None,
                       help="shard scenarios across N worker processes "
                            "(default: CPU count; 1 forces serial; results "
                            "are byte-identical either way)")

    fuzz = commands.add_parser(
        "fuzz", help="differential graph fuzzer over the compile pipeline"
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="root seed; generation, mutation and inputs all "
                           "derive labelled streams from it")
    fuzz.add_argument("--budget", type=int, default=50,
                      help="number of generate/mutate/check rounds")
    fuzz.add_argument("--quick", action="store_true",
                      help="CI smoke subset (budget 25)")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the canonical JSON campaign report")
    fuzz.add_argument("--replay", action="store_true",
                      help="replay the checked-in regression corpus instead "
                           "of fuzzing")
    fuzz.add_argument("--write-corpus", action="store_true",
                      help="regenerate tests/graph/corpus from the seed")
    fuzz.add_argument("--list", action="store_true",
                      help="list mutation kinds and exit")

    loadgen = commands.add_parser(
        "loadgen", help="deterministic open-loop load generation demo"
    )
    loadgen.add_argument("--seed", type=int, default=0,
                         help="root seed; every spec draws its own labelled "
                              "stream from it")
    loadgen.add_argument("--duration", type=float, default=0.5,
                         help="trace duration in seconds")
    loadgen.add_argument("--scale", type=float, default=1.0,
                         help="rate multiplier applied to the demo specs")
    loadgen.add_argument("--quick", action="store_true",
                         help="CI smoke variant (scale 0.25, duration 0.2s)")
    loadgen.add_argument("--json", action="store_true",
                         help="emit the canonical byte-stable JSON summary")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "specs": _cmd_specs,
        "models": _cmd_models,
        "run": _cmd_run,
        "estimate": _cmd_estimate,
        "evaluate": _cmd_evaluate,
        "faults": _cmd_faults,
        "profile": _cmd_profile,
        "trace": _cmd_trace,
        "chaos": _cmd_chaos,
        "fuzz": _cmd_fuzz,
        "loadgen": _cmd_loadgen,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
