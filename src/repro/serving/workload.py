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

import numpy as np

from repro.core.errors import reject_non_finite


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
