"""FaultSchedule: time-varying, per-device composition of fault plans.

A :class:`~repro.faults.plan.FaultPlan` describes one *stationary* fault
campaign. Chaos engineering needs more shape than that: storms that ramp
up, bursts pinned to a window, a device killed outright for half a second,
correlated outages hitting several boards at once. A
:class:`FaultSchedule` composes a background plan with a list of
:class:`StormPhase` windows and answers, for any (time, device) pair, the
*effective* plan in force — which the fleet layer samples per request and
attaches to repair-probe launches.

Everything here is pure configuration: no randomness, no clocks. Draws
against the effective rates happen in the consumer (fleet / server) from
seed-derived streams (see :mod:`repro.seeding`), which keeps whole chaos
scenarios byte-for-byte reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.errors import ReproRuntimeError
from repro.faults.plan import RATE_FIELDS, FaultPlan

__all__ = ["FaultSchedule", "StormPhase"]


@dataclass(frozen=True)
class StormPhase:
    """One windowed fault storm: a plan active on some devices for a while."""

    start_s: float
    """Window start, in trace (fleet) seconds."""
    end_s: float
    """Window end; the phase is active on ``start_s <= t < end_s``."""
    plan: FaultPlan
    """Rates injected while the phase is active (penalties are ignored —
    the schedule's base plan supplies recovery costs)."""
    devices: tuple[int, ...] | None = None
    """Replica indices the storm hits; ``None`` means every device."""
    ramp: bool = False
    """Linearly ramp rates from zero at ``start_s`` to full at ``end_s``."""

    def __post_init__(self) -> None:
        if self.start_s < 0.0:
            raise ReproRuntimeError(
                f"storm start must be >= 0, got {self.start_s}"
            )
        if self.end_s <= self.start_s:
            raise ReproRuntimeError(
                f"storm window is empty: [{self.start_s}, {self.end_s})"
            )

    @classmethod
    def kill(
        cls, device: int, at_s: float, duration_s: float
    ) -> "StormPhase":
        """A hard device kill: every launch on ``device`` aborts fatally."""
        return cls(
            start_s=at_s,
            end_s=at_s + duration_s,
            plan=FaultPlan(dma_abort_rate=1.0),
            devices=(device,),
        )

    def active(self, time_ns: float, device: int) -> bool:
        if self.devices is not None and device not in self.devices:
            return False
        return self.start_s * 1e9 <= time_ns < self.end_s * 1e9

    def intensity(self, time_ns: float) -> float:
        """Rate multiplier in [0, 1]: ramps grow linearly over the window."""
        if not self.ramp:
            return 1.0
        span_ns = (self.end_s - self.start_s) * 1e9
        return min(1.0, max(0.0, (time_ns - self.start_s * 1e9) / span_ns))


@dataclass(frozen=True)
class FaultSchedule:
    """Background plan + storm windows -> effective plan per (time, device)."""

    base: FaultPlan = FaultPlan()
    phases: tuple[StormPhase, ...] = ()

    def plan_at(self, time_ns: float, device: int) -> FaultPlan:
        """The effective :class:`FaultPlan` for ``device`` at ``time_ns``.

        Rates compose as independent failure sources — the survival
        probabilities multiply: ``1 - (1-base) * prod(1 - storm*ramp)`` —
        so stacking storms never pushes a rate past 1. Recovery penalties
        (retry latencies, watchdog timeouts) come from the base plan.
        """
        live = [
            phase for phase in self.phases if phase.active(time_ns, device)
        ]
        if not live:
            return self.base
        overrides: dict[str, float] = {}
        for name in RATE_FIELDS:
            survive = 1.0 - getattr(self.base, name)
            for phase in live:
                survive *= 1.0 - getattr(phase.plan, name) * phase.intensity(
                    time_ns
                )
            overrides[name] = 1.0 - survive
        return replace(self.base, **overrides)

    def rates_at(self, time_ns: float, device: int) -> tuple[float, float]:
        """Effective ``(transient_event_rate, fatal_event_rate)`` per event."""
        plan = self.plan_at(time_ns, device)
        return plan.transient_event_rate, plan.fatal_event_rate

    def silent_rate_at(self, time_ns: float, device: int) -> float:
        """Effective silent-corruption rate per event (0 on a quiet path).

        Kept separate from :meth:`rates_at` so existing consumers draw the
        same stream positions: a schedule with no silent rates never calls
        this into a randomness-consuming branch.
        """
        if not self.any_silent:
            return 0.0
        return self.plan_at(time_ns, device).silent_event_rate

    @property
    def any_silent(self) -> bool:
        """True when any plan (background or storm) can silently corrupt."""
        return self.base.silent_event_rate > 0.0 or any(
            phase.plan.silent_event_rate > 0.0 for phase in self.phases
        )

    @property
    def quiet(self) -> bool:
        """True when nothing (background or storm) ever injects a fault."""
        return not self.base.enabled and not any(
            phase.plan.enabled for phase in self.phases
        )

    def horizon_s(self) -> float:
        """Last storm end — scenarios should outlast this to see recovery."""
        return max((phase.end_s for phase in self.phases), default=0.0)
