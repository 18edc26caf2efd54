"""FaultSchedule: time-varying, per-device composition of fault plans.

A :class:`~repro.faults.plan.FaultPlan` describes one *stationary* fault
campaign. Chaos engineering needs more shape than that: storms that ramp
up, bursts pinned to a window, a device killed outright for half a second,
correlated outages hitting several boards at once. A
:class:`FaultSchedule` composes a background plan with a list of
:class:`StormPhase` windows and answers one question,
:meth:`FaultSchedule.plan_at`: the *effective* plan in force for a
(time, device) pair. The fleet draws each attempt against that plan's
:meth:`~repro.faults.plan.FaultPlan.odds` and attaches the plan to
repair-probe launches.

Everything here is pure configuration: no randomness, no clocks. Draws
against the effective rates happen in the consumer (fleet / server) from
seed-derived streams (see :mod:`repro.seeding`), which keeps whole chaos
scenarios byte-for-byte reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.errors import ReproRuntimeError, reject_non_finite
from repro.faults.plan import RATE_FIELDS, FaultPlan

__all__ = ["FaultSchedule", "StormPhase"]

#: Composed-rate plans a schedule keeps before starting over (a ramped
#: storm composes new rates at every query time).
_PLAN_MEMO_LIMIT = 4096


@dataclass(frozen=True)
class StormPhase:
    """One windowed fault storm: a plan active on some devices for a while."""

    start_s: float
    """Window start, in trace (fleet) seconds."""
    end_s: float
    """Window end; the phase is active on ``start_s <= t < end_s``."""
    plan: FaultPlan
    """Rates injected while the phase is active (its seed and
    ``sdc_cores`` are ignored — the schedule's base plan supplies them)."""
    devices: tuple[int, ...] | None = None
    """Replica indices the storm hits; ``None`` means every device. A
    tuple names at least one index, each ``>= 0``; the fleet checks the
    upper end against its size."""
    ramp: bool = False
    """Linearly ramp rates from zero at ``start_s`` to full at ``end_s``."""

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.start_s < 0.0:
            raise ReproRuntimeError(
                f"storm start must be >= 0, got {self.start_s}"
            )
        if self.end_s <= self.start_s:
            raise ReproRuntimeError(
                f"storm window is empty: [{self.start_s}, {self.end_s})"
            )
        if self.devices is not None and (
            not self.devices or min(self.devices) < 0
        ):
            raise ReproRuntimeError(
                f"storm devices must name replicas >= 0, got {self.devices}"
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

    def __post_init__(self) -> None:
        # Composed rates -> the plan built for them, so repeated queries
        # inside one storm share a plan (and its ``odds`` memo).
        object.__setattr__(self, "_plans", {})

    def plan_at(self, time_ns: float, device: int) -> FaultPlan:
        """The effective :class:`FaultPlan` for ``device`` at ``time_ns``.

        Rates compose as independent failure sources — the survival
        probabilities multiply: ``1 - (1-base) * prod(1 - storm*ramp)`` —
        so stacking storms never pushes a rate past 1. The seed and the
        defective cores come from the base plan. One plan is built per
        distinct tuple of composed rates and returned for every later
        query that composes the same rates.
        """
        live = [
            phase for phase in self.phases if phase.active(time_ns, device)
        ]
        if not live:
            return self.base
        rates = []
        for name in RATE_FIELDS:
            survive = 1.0 - getattr(self.base, name)
            for phase in live:
                survive *= 1.0 - getattr(phase.plan, name) * phase.intensity(
                    time_ns
                )
            rates.append(1.0 - survive)
        rates = tuple(rates)
        plans = self._plans
        plan = plans.get(rates)
        if plan is None:
            if len(plans) >= _PLAN_MEMO_LIMIT:
                plans.clear()
            plan = plans[rates] = replace(
                self.base, **dict(zip(RATE_FIELDS, rates))
            )
        return plan
