"""Host-time benchmark of the DTU simulator stack (see CATALOGUE.md).

    python3 hostbench/run.py --workload zoo --seed 1 --seconds 10 --trace 0

Every sample runs in a fresh interpreter (``worker.py``) with a scrubbed
environment. ``--trace 0`` reports the end-to-end metrics from several
fresh processes that each time their share of ``--seconds``: set-up time,
quiet-host pass time and request rate, and the peak RSS of every process.
``--trace 1`` runs one untraced process and then one traced process, and
reports the per-layer metrics, the unattributed share and the tracing
overhead.

Prints one line per metric, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. A detailed report
(every sample) is written under ``.hostbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUTPUT = ROOT / ".hostbench"

WORKLOADS = ("zoo", "fleet-1k", "server-qos", "chaos")
#: Fresh processes per untraced run; each times its share of --seconds.
PROCESSES = 3
#: A run must exit within 180 s; its worker processes share this budget.
BUDGET_S = 170.0
#: Calibration probe time (``worker.probe_s``) at the reference host speed.
#: Timings are scaled by this over the lower quartile of the run's probes,
#: so they read as seconds on a host whose probe takes this long. The
#: 2-CPU host the benchmark was written on reads about 7.5 ms when its
#: neighbours are quiet; they slow it by up to 1.7x for a fraction of a
#: second to tens of seconds at a time, and its quiet speed drifts by ~10%
#: between runs.
REFERENCE_PROBE_S = 0.0075
#: Switches that would swap the engines under test for their references.
SCRUBBED_ENV = (
    "REPRO_SIM_ENGINE", "REPRO_FLEET_ROUTING", "REPRO_SIM_WORKERS",
    "REPRO_OBS_DEVICE_LABEL_CAP",
)
END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "req_per_s": "1/s", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A worker process failed or overran the run's time budget."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, deadline: float, seconds: float) -> dict:
    """One worker process; returns its JSON line. Killed at the deadline."""
    command = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker overran the run's time budget")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def quiet_pass_s(passes: list[list[float]]) -> float:
    """Pass time on a quiet host: the sum over units of each one's fastest.

    ``passes`` holds one list of unit times per pass. The host's noise
    only ever slows a unit down, and a unit is short, so its fastest
    sample lands between slow spells even when few whole passes do.
    """
    return sum(min(unit) for unit in zip(*passes))


def tail_note(samples: list[float]) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    note = f"median {statistics.median(samples):.6g} s"
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[pct - 1]
            return f"{note}, p{pct} {cut:.6g} s"
    return f"{note}, no tail percentile (fewer than 100 passes)"


def untraced(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    workers = [run_worker(args, "time", deadline, args.seconds / PROCESSES)
               for _ in range(PROCESSES)]
    setups = [worker["setup_s"] for worker in workers]
    passes = [units for worker in workers for units in worker["unit_s"]]
    probes = [sec for worker in workers for sec in worker["probe_s"]]
    requests = workers[0]["requests"][0]
    quiet_probe_s = statistics.quantiles(probes, n=4)[0]
    scale = REFERENCE_PROBE_S / quiet_probe_s
    quiet_s = quiet_pass_s(passes) * scale
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    values = {
        "setup_s": statistics.median(setups) * scale,
        "pass_s": quiet_s,
        "req_per_s": requests / quiet_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = [
        f"host speed: lower quartile of {len(probes)} probes "
        f"{quiet_probe_s * 1e3:.3f} ms (median "
        f"{statistics.median(probes) * 1e3:.3f} ms); timings scaled by "
        f"{scale:.4f} to the {REFERENCE_PROBE_S * 1e3:g} ms reference",
        f"setup_s: median of {len(setups)} fresh processes",
        f"pass_s: sum over {len(passes[0])} units of each unit's fastest "
        f"of {len(passes)} timed passes; unscaled wall time per pass "
        + tail_note([sum(units) for units in passes]),
        f"req_per_s: {requests} simulated requests per pass / pass_s",
        f"peak_rss_mb: max over {len(workers)} processes and their children",
    ]
    metrics = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }
    return metrics, workers, notes


def traced(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    import layers

    plain = run_worker(args, "time", deadline, args.seconds)
    trace = run_worker(args, "trace", deadline, args.seconds)
    # Fastest passes: a slow spell of the host would swamp the difference.
    untraced_s = min(sum(units) for units in plain["unit_s"])
    traced_s = min(trace["pass_s"])
    values = dict(trace["layers"])
    values.update({
        "host.unattributed_frac": trace["unattributed_frac"],
        "host.spans_per_pass": trace["spans_per_pass"],
        "host.traced_pass_s": traced_s,
        "host.untraced_pass_s": untraced_s,
        "host.tracing_overhead_s": traced_s - untraced_s,
    })
    metrics = {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in layers.METRICS
    }
    notes = [
        f"traced {len(trace['pass_s'])} passes after set-up and a warm-up; "
        f"{trace['spans']} spans written to {trace['spans_file']}",
        f"unattributed share of traced pass time "
        f"{trace['unattributed_frac']:.3f}; tracing overhead "
        f"{traced_s - untraced_s:+.4f} s on a {untraced_s:.4f} s pass "
        "(fastest passes, unscaled)",
    ]
    return metrics, [plain, trace], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"hostbench: no src/repro package under {ROOT}; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        measure = traced if args.trace else untraced
        metrics, workers, notes = measure(args, deadline)
    except BenchError as error:
        print(f"hostbench: {error}", file=sys.stderr)
        return 1
    attempted = sum(worker["attempted"] for worker in workers)
    failed = sum(worker["failed"] for worker in workers)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUTPUT.mkdir(exist_ok=True)
    report = OUTPUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({**result, "workers": workers}, indent=1))
    env = workers[-1]
    print(f"hostbench {args.workload} seed={args.seed} "
          f"python={env['python']} nproc={env['nproc']}")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for note in notes + [f"fail_frac: {failed}/{attempted} operations"]:
        print(f"  {note}")
    for worker in workers:
        for failure in worker["failures"]:
            print(f"  FAIL {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
