"""Local Power Management Engine (paper §IV-F1, Fig. 9).

One LPME sits at each function unit. Per observation window it:

1. projects the power the unit needs from its observed activity,
2. enforces its assigned budget by inserting pipeline stalls/bubbles via a
   negative-feedback throttle when the projection exceeds the budget,
3. tracks the stall ratio over recent windows; when stalls exceed the
   *budget-borrow threshold* in M of the last N windows, it asks the CPME
   for more budget,
4. returns budget it demonstrably does not need.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.power.errors import BudgetFloorError
from repro.power.model import UnitPowerModel


class WindowReport(NamedTuple):
    """What one LPME observed and decided in one observation window.

    A NamedTuple rather than a dataclass: one report is built per unit per
    observation window (tens of thousands per launch) and tuple
    construction is an order of magnitude cheaper. ``throttle`` is the
    fraction of the window spent stalled to stay under budget (0 = free).
    """

    unit: str
    activity: float
    projected_watts: float
    budget_watts: float
    throttle: float
    borrow_requested: bool
    returned_watts: float


@dataclass
class Lpme:
    """The local engine for one function unit."""

    unit_model: UnitPowerModel
    budget_watts: float
    borrow_threshold: float = 0.05
    """Stall ratio above which a window counts as budget-starved."""
    borrow_m: int = 3
    borrow_n: int = 5
    """Request more budget when M of the last N windows were starved."""
    return_headroom: float = 1.25
    """Keep this multiple of projected need before returning the excess."""
    history: deque = field(default_factory=lambda: deque(maxlen=5))

    def __post_init__(self) -> None:
        self.history = deque(maxlen=self.borrow_n)
        self._stall_time_total = 0.0
        self._windows_observed = 0
        # Steady-state window memo: most units spend most windows at a
        # fixed point (idle, budget settled) where observe() would redo
        # the identical arithmetic. The memo is keyed on the complete
        # observable state and only populated when a window provably
        # left that state untouched, so replaying it is exact.
        self._memo_key: tuple | None = None
        self._memo_report: WindowReport | None = None
        #: the CPME lockstep class this unit belongs to (repro.power.cpme):
        #: its leader's observe() stands for every member, which share its
        #: history deque and read their counters from it. None while the
        #: unit is evaluated alone.
        self._lockstep = None
        floor = self.unit_model.min_power_watts()
        if self.budget_watts < floor:
            raise ValueError(
                f"{self.unit_model.params.name}: budget {self.budget_watts} W "
                f"below static floor {floor} W"
            )

    @property
    def name(self) -> str:
        return self.unit_model.params.name

    @property
    def stall_time_total(self) -> float:
        """Window time spent throttled, summed over every observed window."""
        group = self._lockstep
        if group is not None:
            return group.members[0]._stall_time_total
        return self._stall_time_total

    @property
    def windows_observed(self) -> int:
        group = self._lockstep
        if group is not None:
            return group.members[0]._windows_observed
        return self._windows_observed

    def observe(
        self,
        activity: float,
        f_ghz: float,
        window_ns: float,
    ) -> WindowReport:
        """Run one observation window; returns the regulation decision.

        ``activity`` is the duty-cycle the workload *wants*; the throttle is
        how much of it the budget forces the unit to forgo.
        """
        history = self.history
        budget = self.budget_watts
        state = (activity, f_ghz, window_ns, budget, tuple(history))
        if state == self._memo_key:
            report = self._memo_report
            self._stall_time_total += report.throttle * window_ns
            self._windows_observed += 1
            return report
        unit_model = self.unit_model
        projected = unit_model.power_watts(activity, f_ghz)
        throttle = 0.0
        if projected > budget and activity > 0:
            # Negative feedback: scale activity down until the projection
            # meets the budget. Dynamic power is linear in activity, so the
            # fixpoint is closed-form.
            static = unit_model.params.static_watts
            dynamic = projected - static
            allowed_dynamic = max(0.0, budget - static)
            achievable = allowed_dynamic / dynamic if dynamic > 0 else 1.0
            throttle = max(0.0, 1.0 - achievable)
        self._stall_time_total += throttle * window_ns
        self._windows_observed += 1
        history.append(throttle > self.borrow_threshold)

        borrow = (
            len(history) == self.borrow_n and sum(history) >= self.borrow_m
        )
        returned = 0.0
        if not borrow and throttle == 0.0:
            # min_power_watts() is the unit's static floor.
            keep = max(
                unit_model.params.static_watts, projected * self.return_headroom
            )
            if budget > keep:
                returned = budget - keep
                self.budget_watts = budget = keep
        if returned == 0.0 and tuple(history) == state[4]:
            # Fixed point: budget and history are exactly as they were on
            # entry, so the next identical window replays this report.
            self._memo_key = state
        else:
            self._memo_key = None
        self._memo_report = report = WindowReport(
            unit_model.params.name, activity, projected, budget, throttle,
            borrow, returned,
        )
        return report

    def grant(self, watts: float) -> None:
        """CPME granted additional budget."""
        if watts < 0:
            raise ValueError(f"negative grant {watts}")
        if self._lockstep is not None:
            self._lockstep.break_up()
        self.budget_watts += watts
        self.history.clear()
        self._memo_key = None

    def reclaim(self, watts: float) -> None:
        """CPME clawed budget back (board limit tightened under a cap)."""
        if watts < 0:
            raise ValueError(f"negative reclaim {watts}")
        floor = self.unit_model.min_power_watts()
        if self.budget_watts - watts < floor - 1e-12:
            raise BudgetFloorError(
                f"{self.name}: reclaim {watts} W would cut budget below the "
                f"{floor} W static floor"
            )
        if self._lockstep is not None:
            self._lockstep.break_up()
        self.budget_watts -= watts
        self.history.clear()
        self._memo_key = None

    def effective_slowdown(self, report: WindowReport) -> float:
        """Workload time dilation the throttle causes this window.

        A unit stalled for fraction ``t`` of a window delivers ``1 - t`` of
        its work, i.e. runs ``1 / (1 - t)`` slower.
        """
        if report.throttle >= 1.0:
            raise BudgetFloorError(f"{self.name}: budget below static floor")
        return 1.0 / (1.0 - report.throttle)
