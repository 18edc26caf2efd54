"""Open-loop load generation: arrival processes over synthetic users.

:mod:`repro.serving.workload` replays *closed-form* Poisson tenants; cloud
overload testing needs the open-loop shape real front ends see — offered
load that does **not** slow down when the service saturates (the TPU
datacenter observation: user traffic is an open loop, so an overloaded
server faces ever-deeper queues, not a politely backing-off client). This
module generates such traffic deterministically:

- **arrival processes** — seeded Poisson (stationary), **diurnal**
  (sinusoidal day/night modulation) and **flash-crowd** (a ramped spike
  multiplying the baseline rate for a window) shapes, all realised by
  thinning a homogeneous Poisson stream (Lewis & Shedler), so one seed
  reproduces the trace byte-for-byte;
- **synthetic user populations** — every request is attributed to one of
  ``users`` synthetic users through per-user *session* state: a session
  issues a geometrically-distributed number of requests before closing,
  and new sessions recruit users round-robin from the population;
- **SLO classes** — each spec labels its requests with an SLO class
  (``interactive`` / ``standard`` / ``batch``), which the admission layer
  (:mod:`repro.serving.admission`) sheds in brownout order;
- **composability** — the output is a plain sorted ``list[Request]``;
  :func:`merge_traces` re-ids and interleaves loadgen output with
  :func:`~repro.serving.workload.generate_trace` traces, so legacy
  closed-loop tenants and open-loop populations share one timeline.

Every stream derives from one root seed via :mod:`repro.seeding`
(``loadgen:<index>:<tenant>:<class>`` labels), so whole overload storms
replay bit-identically — the property the chaos harness pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import reject_non_finite
from repro.seeding import derive_seed
from repro.serving.workload import Request

__all__ = [
    "LoadSpec",
    "LoadSummary",
    "demo_specs",
    "generate_load",
    "merge_traces",
    "summarize_trace",
]

_SHAPES = ("poisson", "diurnal", "flash-crowd")


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop arrival process over a synthetic user population."""

    tenant: str
    rate_per_s: float
    """Mean *baseline* aggregate request rate of the population."""
    slo_class: str = "standard"
    """SLO class stamped on every request this spec emits."""
    shape: str = "poisson"
    """Arrival process: ``poisson``, ``diurnal`` or ``flash-crowd``."""
    users: int = 100
    """Synthetic population size requests are attributed to."""
    session_mean_requests: float = 4.0
    """Mean requests per user session (geometric session lengths)."""
    # diurnal shape --------------------------------------------------------
    period_s: float = 1.0
    """Diurnal cycle length; the rate swings once per period."""
    amplitude: float = 0.5
    """Diurnal modulation depth in [0, 1): rate swings rate*(1 +/- amp)."""
    # flash-crowd shape ----------------------------------------------------
    flash_at_s: float = 0.2
    """Flash-crowd onset time."""
    flash_duration_s: float = 0.2
    """Length of the elevated-rate window (including ramps)."""
    flash_multiplier: float = 4.0
    """Peak rate as a multiple of the baseline rate."""
    flash_ramp_s: float = 0.05
    """Linear ramp up to (and back down from) the peak."""

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.rate_per_s < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate_per_s}")
        if self.shape not in _SHAPES:
            raise ValueError(
                f"unknown shape {self.shape!r}; choose from {_SHAPES}"
            )
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")
        if self.session_mean_requests < 1.0:
            raise ValueError(
                f"session_mean_requests must be >= 1, "
                f"got {self.session_mean_requests}"
            )
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )
        if self.period_s <= 0:
            raise ValueError(f"period must be > 0, got {self.period_s}")
        if self.flash_multiplier < 1.0:
            raise ValueError(
                f"flash_multiplier must be >= 1, got {self.flash_multiplier}"
            )
        if self.flash_duration_s <= 0:
            raise ValueError(
                f"flash_duration_s must be > 0, got {self.flash_duration_s}"
            )
        if self.flash_ramp_s < 0 or 2 * self.flash_ramp_s > self.flash_duration_s:
            raise ValueError(
                f"flash_ramp_s must satisfy 0 <= 2*ramp <= duration, "
                f"got ramp={self.flash_ramp_s} duration={self.flash_duration_s}"
            )

    # -- the time-varying rate --------------------------------------------

    def rate_at(self, t_s: float) -> float:
        """Instantaneous arrival rate lambda(t), requests per second."""
        if self.shape == "poisson":
            return self.rate_per_s
        if self.shape == "diurnal":
            # Trough at t=0 so short traces start in the quiet phase.
            swing = math.sin(2.0 * math.pi * t_s / self.period_s - math.pi / 2)
            return self.rate_per_s * (1.0 + self.amplitude * swing)
        # flash-crowd: baseline + ramped spike window.
        start, end = self.flash_at_s, self.flash_at_s + self.flash_duration_s
        if not start <= t_s < end:
            return self.rate_per_s
        surge = self.flash_multiplier - 1.0
        ramp = self.flash_ramp_s
        if ramp > 0.0 and t_s < start + ramp:
            surge *= (t_s - start) / ramp
        elif ramp > 0.0 and t_s >= end - ramp:
            surge *= (end - t_s) / ramp
        return self.rate_per_s * (1.0 + surge)

    @property
    def peak_rate_per_s(self) -> float:
        """Upper bound on lambda(t) — the thinning envelope."""
        if self.shape == "diurnal":
            return self.rate_per_s * (1.0 + self.amplitude)
        if self.shape == "flash-crowd":
            return self.rate_per_s * self.flash_multiplier
        return self.rate_per_s


@dataclass
class _SessionState:
    """Open sessions of one population: who is mid-session, how much left."""

    next_user: int = 0
    open_sessions: list[tuple[int, int]] = field(default_factory=list)
    """(user_id, requests_remaining) per open session."""


def _arrivals(spec: LoadSpec, duration_s: float, rng) -> list[float]:
    """Thinned non-homogeneous Poisson arrival times, in seconds."""
    peak = spec.peak_rate_per_s
    if peak <= 0.0:
        return []
    times: list[float] = []
    now = 0.0
    while True:
        now += rng.exponential(1.0 / peak)
        if now > duration_s:
            return times
        if rng.random() < spec.rate_at(now) / peak:
            times.append(now)


def _attribute_users(
    spec: LoadSpec, count: int, rng, state: _SessionState
) -> list[int]:
    """Assign each arrival to a user via per-user session state.

    With probability ``1 - 1/mean`` an arrival continues a uniformly
    chosen open session (same user, one fewer request remaining); other
    arrivals open a fresh session for the next user round-robin in the
    population, with a geometric number of requests to issue.
    """
    continue_p = 1.0 - 1.0 / spec.session_mean_requests
    users: list[int] = []
    for _ in range(count):
        sessions = state.open_sessions
        if sessions and rng.random() < continue_p:
            slot = int(rng.integers(len(sessions)))
            user, remaining = sessions[slot]
            remaining -= 1
            if remaining <= 0:
                sessions.pop(slot)
            else:
                sessions[slot] = (user, remaining)
        else:
            user = state.next_user % spec.users
            state.next_user += 1
            remaining = int(rng.geometric(1.0 / spec.session_mean_requests))
            if remaining > 1:
                sessions.append((user, remaining - 1))
        users.append(user)
    return users


def generate_load(
    specs: list[LoadSpec],
    duration_s: float,
    seed: int = 0,
) -> list[Request]:
    """Merge every spec's open-loop arrival process into one trace.

    Deterministic: each spec draws from its own labeled stream
    (``loadgen:<index>:<tenant>:<class>`` off the root ``seed``), so
    adding a spec never perturbs the others and the same call reproduces
    the same trace byte-for-byte.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    keyed: list[tuple[float, int, int, LoadSpec, int]] = []
    for index, spec in enumerate(specs):
        stream = derive_seed(
            seed, "loadgen", index, spec.tenant, spec.slo_class
        ) % 2**32
        rng = np.random.default_rng(stream)
        times = _arrivals(spec, duration_s, rng)
        users = _attribute_users(spec, len(times), rng, _SessionState())
        for order, (t_s, user) in enumerate(zip(times, users)):
            keyed.append((t_s * 1e9, index, order, spec, user))
    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    return [
        Request(
            request_id=request_id,
            tenant=spec.tenant,
            arrival_ns=arrival_ns,
            slo_class=spec.slo_class,
            user_id=user,
        )
        for request_id, (arrival_ns, _idx, _order, spec, user) in enumerate(keyed)
    ]


def merge_traces(*traces: list[Request]) -> list[Request]:
    """Interleave traces (e.g. loadgen + legacy generate_trace) by time.

    Requests are re-numbered so ids stay unique and arrival-ordered; all
    other fields (tenant, class, user) pass through untouched.
    """
    merged = sorted(
        (request for trace in traces for request in trace),
        key=lambda request: (request.arrival_ns, request.tenant,
                             request.slo_class, request.request_id),
    )
    return [
        Request(
            request_id=index,
            tenant=request.tenant,
            arrival_ns=request.arrival_ns,
            slo_class=request.slo_class,
            user_id=request.user_id,
        )
        for index, request in enumerate(merged)
    ]


@dataclass
class LoadSummary:
    """Per (tenant, class) shape statistics of one generated trace."""

    tenant: str
    slo_class: str
    requests: int
    mean_rate_per_s: float
    peak_rate_per_s: float
    """Highest observed rate over any 50 ms window, scaled to per-second."""
    users: int
    sessions: int

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant, "slo_class": self.slo_class,
            "requests": self.requests,
            "mean_rate_per_s": self.mean_rate_per_s,
            "peak_rate_per_s": self.peak_rate_per_s,
            "users": self.users, "sessions": self.sessions,
        }


def summarize_trace(
    trace: list[Request], duration_s: float, window_s: float = 0.05
) -> list[LoadSummary]:
    """Shape statistics per (tenant, class), sorted for stable output."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    groups: dict[tuple[str, str], list[Request]] = {}
    for request in trace:
        groups.setdefault((request.tenant, request.slo_class), []).append(
            request
        )
    summaries = []
    buckets = max(1, int(math.ceil(duration_s / window_s)))
    for (tenant, slo_class), requests in sorted(groups.items()):
        counts = [0] * buckets
        for request in requests:
            slot = min(buckets - 1, int(request.arrival_ns / 1e9 / window_s))
            counts[slot] += 1
        users = {r.user_id for r in requests}
        # Session count estimate: first request of each contiguous same-user
        # run is a session start (exact for the generator's attribution).
        sessions = sum(
            1 for i, r in enumerate(requests)
            if i == 0 or requests[i - 1].user_id != r.user_id
        )
        summaries.append(
            LoadSummary(
                tenant=tenant,
                slo_class=slo_class,
                requests=len(requests),
                mean_rate_per_s=len(requests) / duration_s,
                peak_rate_per_s=max(counts) / window_s,
                users=len(users),
                sessions=sessions,
            )
        )
    return summaries


def demo_specs(scale: float = 1.0) -> list[LoadSpec]:
    """The built-in three-class population the CLI and docs demo with."""
    return [
        LoadSpec(
            tenant="app", rate_per_s=400.0 * scale, slo_class="interactive",
            shape="flash-crowd", users=200, flash_at_s=0.15,
            flash_duration_s=0.2, flash_multiplier=4.0, flash_ramp_s=0.05,
        ),
        LoadSpec(
            tenant="app", rate_per_s=500.0 * scale, slo_class="standard",
            shape="diurnal", users=300, period_s=0.5, amplitude=0.6,
        ),
        LoadSpec(
            tenant="app", rate_per_s=600.0 * scale, slo_class="batch",
            shape="poisson", users=50, session_mean_requests=8.0,
        ),
    ]
