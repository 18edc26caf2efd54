"""Record the InferenceServer golden: every TenantReport over a config grid.

The grid crosses the server's serving-policy axes so one file pins the
whole request loop:

- deployment: isolated slices or one shared queue;
- admission: none, flat ``queue_depth_limit``, or a three-class
  ``AdmissionPolicy``;
- continuous batching: ``coalesce_window_ms`` 0 or 0.5 (``max_batch`` > 1);
- faults: none, or a RAS ``FaultPlan`` with a per-request deadline.

Two more cells, ``unknown-class/<deployment>``, run the policy (with a
tighter ``standard`` deadline and a deeper ``batch`` queue) and
continuous batching over that trace plus a bursty vision stream whose
SLO class (``bulk``) the policy does not name: such arrivals take
``standard``'s queue limit and deadline, count their depth under their
own class name and stay out of backpressure.

Traffic is one seeded two-tenant trace with mixed SLO classes, heavy
enough to shed, brown out, retry and trip breakers, closed by a flood
on the first tenant. Service times are
given explicitly, so no detailed-simulator run is involved.

Rewrite the file with ``PYTHONPATH=src python tools/server_golden.py``
(``-o PATH`` writes elsewhere); ``tests/serving/test_server_golden.py``
holds the server to it.
"""

from __future__ import annotations

import argparse
import itertools
import json
from dataclasses import asdict
from pathlib import Path

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "serving" / "data" / "server_golden.json"
)

DEPLOYMENTS = ("isolated", "shared")
ADMISSIONS = ("none", "flat", "policy")
COALESCE = ("window-0", "window-0.5")
FAULTS = ("clean", "ras")


def _trace():
    from repro.serving.workload import Request, TrafficPattern, generate_trace

    trace = generate_trace(
        [
            TrafficPattern("vision", 700.0, slo_class="interactive"),
            TrafficPattern("vision", 500.0, burstiness=4.0, slo_class="batch"),
            TrafficPattern("nlp", 250.0, slo_class="standard"),
            TrafficPattern("nlp", 150.0, burstiness=2.0, slo_class="batch"),
        ],
        duration_s=0.3,
        seed=13,
    )
    # A closing vision flood ends that tenant's traffic in brownout, and
    # nlp opens with a batch-class request: whether one isolated slice's
    # brownout leaks into the next shows up in the nlp reports.
    flood = [
        Request(10_000 + i, "vision", 290e6 + i * 0.02e6, slo_class="standard")
        for i in range(150)
    ]
    opener = Request(20_000, "nlp", 0.05e6, slo_class="batch")
    return sorted(
        trace + flood + [opener],
        key=lambda request: (request.arrival_ns, request.request_id),
    )


def _unknown_class_trace():
    from repro.serving.workload import Request, TrafficPattern, generate_trace

    bulk = [
        Request(
            30_000 + request.request_id, request.tenant, request.arrival_ns,
            slo_class=request.slo_class,
        )
        for request in generate_trace(
            [TrafficPattern("vision", 600.0, burstiness=3.0,
                            slo_class="bulk")],
            duration_s=0.3,
            seed=17,
        )
    ]
    return sorted(
        _trace() + bulk,
        key=lambda request: (request.arrival_ns, request.request_id),
    )


def _server(
    deployment: str,
    admission: str,
    coalesce: str,
    faults: str,
    standard_deadline_ms: float = 60.0,
    batch_limit: int = 24,
):
    from repro.faults.plan import FaultPlan
    from repro.serving.admission import AdmissionPolicy, SloClass
    from repro.serving.server import InferenceServer, RasConfig, TenantConfig

    window = 0.5 if coalesce == "window-0.5" else 0.0
    tenants = [
        TenantConfig("vision", "resnet50", groups=2, max_batch=4,
                     sla_ms=5.0, coalesce_window_ms=window),
        TenantConfig("nlp", "bert_large", groups=3, max_batch=2,
                     sla_ms=20.0, coalesce_window_ms=window),
    ]
    policy = None
    if admission == "policy":
        policy = AdmissionPolicy(
            classes=(
                SloClass("interactive", deadline_ms=15.0, queue_limit=12,
                         shed_priority=0),
                SloClass("standard", deadline_ms=standard_deadline_ms,
                         queue_limit=16, shed_priority=1),
                SloClass("batch", deadline_ms=None, queue_limit=batch_limit,
                         shed_priority=2),
            ),
        )
    plan = None
    if faults == "ras":
        plan = FaultPlan(seed=7, dma_corrupt_rate=2e-3, dma_abort_rate=1.5e-3)
    ras = RasConfig(
        max_retries=1,
        queue_depth_limit=10 if admission == "flat" else None,
        breaker_threshold=2,
        deadline_ms=25.0 if faults == "ras" else None,
    )
    return InferenceServer(
        tenants,
        isolated=deployment == "isolated",
        service_times_ns={"vision": 1.0e6, "nlp": 2.5e6},
        fault_plan=plan,
        ras=ras,
        admission=policy,
    )


def cells() -> dict[str, dict[str, dict]]:
    """``"deployment/admission/coalesce/faults"`` and
    ``"unknown-class/deployment"`` -> tenant -> report."""
    trace = _trace()
    out: dict[str, dict[str, dict]] = {}
    for axes in itertools.product(DEPLOYMENTS, ADMISSIONS, COALESCE, FAULTS):
        out["/".join(axes)] = _reports(_server(*axes), trace)
    trace = _unknown_class_trace()
    for deployment in DEPLOYMENTS:
        out[f"unknown-class/{deployment}"] = _reports(
            _server(deployment, "policy", "window-0.5", "clean",
                    standard_deadline_ms=25.0, batch_limit=96),
            trace,
        )
    return out


def _reports(server, trace) -> dict[str, dict]:
    return {
        name: asdict(report) for name, report in server.run(trace).items()
    }


def render() -> str:
    return json.dumps(cells(), indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", type=Path, default=GOLDEN)
    args = parser.parse_args()
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(render())
