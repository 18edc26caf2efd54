"""Request workload generation for cloud-serving simulations.

The paper frames the i20 as a *cloud inference* part (§I, §II-B): requests
arrive continuously and the operator cares about latency percentiles and
throughput, not single-shot runs. This module produces deterministic
synthetic request traces — Poisson arrivals (exponential gaps from a seeded
RNG), optionally bursty — standing in for the production traces we cannot
ship (see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.core.errors import ReproRuntimeError, reject_non_finite


@dataclass(frozen=True)
class Request:
    """One inference request."""

    request_id: int
    tenant: str
    arrival_ns: float
    slo_class: str = "standard"
    """SLO class the admission layer queues/sheds this request under
    (see :mod:`repro.serving.admission`); legacy traces default to
    ``standard`` and behave exactly as before."""
    user_id: int = -1
    """Synthetic user the open-loop generator attributed the request to
    (:mod:`repro.serving.loadgen`); -1 for closed-form traces."""


@dataclass(frozen=True)
class TrafficPattern:
    """Arrival-process parameters for one tenant."""

    tenant: str
    rate_per_s: float
    """Mean request rate; 0 is allowed and generates no requests (useful
    when sweeping a tenant's share of a composed workload down to zero)."""
    burstiness: float = 1.0
    """1.0 = Poisson; >1 squeezes gaps into bursts of idle/active phases."""
    slo_class: str = "standard"
    """SLO class stamped on every generated request."""

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.rate_per_s < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate_per_s}")
        if self.burstiness < 1.0:
            raise ValueError(f"burstiness must be >= 1, got {self.burstiness}")


def generate_trace(
    patterns: list[TrafficPattern],
    duration_s: float,
    seed: int = 0,
) -> list[Request]:
    """Merge per-tenant arrival processes into one time-sorted trace."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    rng = np.random.default_rng(seed)
    requests: list[Request] = []
    request_id = 0
    for pattern in patterns:
        if pattern.rate_per_s == 0:
            continue
        mean_gap_ns = 1e9 / pattern.rate_per_s
        now = 0.0
        active = True
        while True:
            if pattern.burstiness > 1.0:
                # on/off bursts: active phases run at burstiness x rate,
                # idle phases pause, preserving the mean rate overall.
                gap = rng.exponential(mean_gap_ns / pattern.burstiness)
                if rng.random() < 0.05:
                    active = not active
                if not active:
                    now += gap * pattern.burstiness
                    continue
            else:
                gap = rng.exponential(mean_gap_ns)
            now += gap
            if now > duration_s * 1e9:
                break
            requests.append(
                Request(
                    request_id=request_id, tenant=pattern.tenant,
                    arrival_ns=now, slo_class=pattern.slo_class,
                )
            )
            request_id += 1
    requests.sort(key=lambda request: (request.arrival_ns, request.request_id))
    return requests


def validate_trace(trace: list[Request], tenants) -> None:
    """The request contract both serving engines hold a trace to.

    Raises :class:`~repro.core.errors.ReproRuntimeError` at the first
    offending request: a non-finite ``arrival_ns``, an arrival before its
    predecessor (the first before 0), or a tenant not in ``tenants``,
    checked in that order at one index. One vectorized pass.
    """
    n = len(trace)
    if not n:
        return
    arrivals = np.fromiter(
        map(attrgetter("arrival_ns"), trace), dtype=np.float64, count=n
    )
    previous = np.empty(n)
    previous[0] = 0.0
    previous[1:] = arrivals[:-1]
    bad = np.flatnonzero(~np.isfinite(arrivals))
    bad_finite = int(bad[0]) if bad.size else n
    drops = np.flatnonzero(arrivals < previous)
    bad_arrival = int(drops[0]) if drops.size else n
    bad_tenant = n
    if not tenants.keys() >= set(map(attrgetter("tenant"), trace)):
        for index in range(min(bad_finite, bad_arrival, n - 1) + 1):
            if trace[index].tenant not in tenants:
                bad_tenant = index
                break
    first = min(bad_finite, bad_arrival, bad_tenant)
    if first >= n:
        return
    request = trace[first]
    if first == bad_finite:
        raise ReproRuntimeError(
            f"request {request.request_id}: arrival_ns must be finite, "
            f"got {request.arrival_ns}"
        )
    if first == bad_arrival:
        raise ReproRuntimeError(
            f"trace arrivals must be non-decreasing: request "
            f"{request.request_id} at {request.arrival_ns} after "
            f"{float(previous[bad_arrival])}"
        )
    raise ReproRuntimeError(
        f"request {request.request_id}: unknown tenant "
        f"{request.tenant!r}"
    )
