"""One benchmark process: set up a workload, then time or trace its passes.

``run.py`` starts this in a fresh interpreter for every sample; the last
stdout line is one JSON object. Modes:

- ``time``: set-up, one discarded warm-up pass, then timed passes until
  ``--seconds`` of pass time have accumulated, ``gc.collect()`` between
  passes outside the timed window. Each unit of a pass is timed on its
  own. ``setup_s`` runs from this file's first statement (imports
  included) to the end of set-up. A calibration probe
  (:func:`probe_s`) runs before each timed pass and after the last;
- ``trace``: the same under the outside-in span recorder (layers.py),
  reporting the per-layer metrics;
- ``pin``: set-up and one pass; prints what pins.json records.

    python3 hostbench/worker.py --workload zoo --seed 1 --seconds 10 --mode time
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

PINS = HERE / "pins.json"
OUTPUT = ROOT / ".hostbench"

#: Timed passes per process even when they outlast ``--seconds``: the
#: fastest-unit estimate needs samples (a chaos pass takes ~2 s).
MIN_TIMED_PASSES = 4
#: Traced passes kept at most: a fleet-1k pass records ~10^5 spans.
MAX_TRACED_PASSES = 3


class Checker:
    """Counts operations and failures; every pass must repeat pass one."""

    def __init__(self, workload, pins: dict, seed: int) -> None:
        self.workload, self.pins, self.seed = workload, pins, seed
        self.first_digest = None
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, result) -> None:
        self.attempted += result.attempted
        self.failures += result.failures
        if self.first_digest is None:
            self.first_digest = result.digest
            self.failures += self.workload.pin_failures(
                result, self.pins, self.seed
            )
        elif result.digest != self.first_digest:
            self.failures.append("pass digest differs from the first pass")

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": min(len(self.failures), self.attempted),
            "failures": self.failures[:20],
        }


def one_pass(workload, checker) -> tuple[list[float], int]:
    """Run and check one pass; returns (host s per unit, simulated requests)."""
    outputs, unit_s = [], []
    for unit in workload.units():
        started = time.perf_counter()
        outputs.append(unit())
        unit_s.append(time.perf_counter() - started)
    result = workload.summarize(outputs)
    checker.check(result)
    return unit_s, result.requests


class _Event:
    __slots__ = ("due", "key", "value")

    def __init__(self, due: float, key: int, value: float) -> None:
        self.due, self.key, self.value = due, key, value


def probe_s() -> float:
    """Host seconds of a fixed, program-independent calibration loop.

    The loop does what the simulator's hot paths do (small objects, a
    heap, dict updates, float math), so a host slowdown that hits the
    passes hits it alike. Best of three, to skip a preempted reading.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        heap, totals = [], {}
        for i in range(8000):
            event = _Event((i * 7919) % 8191 / 8191.0, i & 255, i * 0.5)
            heapq.heappush(heap, (event.due, i, event))
            totals[event.key] = totals.get(event.key, 0.0) + event.value
            if len(heap) > 64:
                heapq.heappop(heap)
        best = min(best, time.perf_counter() - started)
    return best


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count()}


def timed(args, pins) -> dict:
    workload = workloads.make(args.workload, args.seed)
    checker = Checker(workload, pins, args.seed)
    if workload.setup_runs_first_pass:
        one_pass(workload, checker)
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s, **environment()}
    if not workload.setup_runs_first_pass:
        one_pass(workload, checker)  # warm-up, not timed
    unit_s, requests, probes = [], [], []
    while (len(unit_s) < MIN_TIMED_PASSES
           or sum(map(sum, unit_s)) < args.seconds):
        gc.collect()
        probes.append(probe_s())
        seconds, offered = one_pass(workload, checker)
        unit_s.append(seconds)
        requests.append(offered)
    probes.append(probe_s())
    return {**result, "unit_s": unit_s, "requests": requests,
            "probe_s": probes, **checker.report()}


def traced(args, pins) -> dict:
    import layers
    from spans import SpanRecorder

    recorder = SpanRecorder()
    layers.install(recorder)
    recorder.track_gc()
    try:
        with recorder.root("setup"):
            workload = workloads.make(args.workload, args.seed)
            if workload.setup_runs_first_pass:
                output = workload.run_pass()
        checker = Checker(workload, pins, args.seed)
        if workload.setup_runs_first_pass:
            checker.check(workload.summarize(output))
        else:
            mark = len(recorder)
            with recorder.root("warmup"):
                output = workload.run_pass()
            checker.check(workload.summarize(output))
            recorder.drop_since(mark)
        elapsed = 0.0
        passes = 0
        while passes < 1 or (
            elapsed < args.seconds and passes < MAX_TRACED_PASSES
        ):
            gc.collect()
            with recorder.root("pass") as index:
                output = workload.run_pass()
            elapsed += recorder.ends[index] - recorder.starts[index]
            passes += 1
            checker.check(workload.summarize(output))
    finally:
        recorder.restore()
    values, activity, host = layers.evaluate(recorder)
    checker.failures += layers.load_failures(args.workload, values, activity)
    OUTPUT.mkdir(exist_ok=True)
    spans_path = OUTPUT / f"spans-{args.workload}.npz"
    recorder.save(spans_path)
    return {
        "layers": values, "activity": activity, **host,
        "spans": len(recorder),
        "spans_file": str(spans_path.relative_to(ROOT)),
        **environment(), **checker.report(),
    }


def pinned(args) -> dict:
    workload = workloads.make(args.workload, args.seed)
    result = workload.summarize(workload.run_pass())
    return {"pinned": result.pinned, "failures": result.failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("time", "trace", "pin"))
    args = parser.parse_args(argv)
    if args.mode == "pin":
        out = pinned(args)
    else:
        pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
        out = traced(args, pins) if args.mode == "trace" else timed(args, pins)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
