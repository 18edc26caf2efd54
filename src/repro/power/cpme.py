"""Central Power Management Engine (paper §IV-F1, Figs. 8-9).

"On system booting, CPME conservatively assigns a baseline power budget to
every function unit (i.e., the minimal power budget the function unit
requires) and reserves the remaining budgets for runtime distribution."

The CPME owns the board power limit. It grants LPME borrow requests out of
the reserve pool while guaranteeing the sum of all outstanding budgets never
exceeds the limit (power integrity), and it reabsorbs budget the LPMEs
return.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.power.errors import PowerIntegrityError
from repro.power.lpme import Lpme, WindowReport
from repro.power.model import UnitPowerModel

__all__ = ["Cpme", "PowerIntegrityError"]


def _lockstep_key(lpme: Lpme) -> tuple:
    """Everything :meth:`Lpme.observe` reads besides its inputs.

    Two LPMEs with equal keys that receive the same activity and
    frequency produce equal reports and equal successor state.
    """
    params = lpme.unit_model.params
    return (
        type(lpme), params.static_watts, params.dynamic_watts_peak,
        lpme.unit_model.curve, lpme.borrow_threshold, lpme.borrow_m,
        lpme.borrow_n, lpme.return_headroom, lpme.budget_watts,
        tuple(lpme.history), lpme._memo_key, lpme._stall_time_total,
        lpme._windows_observed,
    )


class _Lockstep:
    """A run of consecutively registered LPMEs evaluated as one.

    The members share calibration, budget, history and counters, and
    receive the same activity and frequency; the CPME observes the leader
    and derives the followers' reports from it. Followers share the
    leader's history deque and read their counters from the leader;
    budgets are copied eagerly (the CPME sums them), memos when the class
    breaks up. A direct :meth:`Lpme.grant` / :meth:`Lpme.reclaim` on any
    member breaks the class up, and the next window re-partitions the
    members by state.
    """

    __slots__ = (
        "start", "members", "leader_name", "followers", "follower_names",
        "leader_report", "follower_reports", "broken",
    )

    def __init__(self, start: int, members: list[Lpme]) -> None:
        self.start = start
        self.members = members
        self.leader_name = members[0].name
        self.followers = members[1:]
        self.follower_names = [member.name for member in self.followers]
        self.leader_report: WindowReport | None = None
        #: follower name -> report, rebuilt on each fresh leader report
        self.follower_reports: dict[str, WindowReport] = {}
        self.broken = False
        history = members[0].history
        shared = deque(history, history.maxlen)
        for member in members:
            member.history = shared
            member._lockstep = self if self.followers else None

    def break_up(self) -> None:
        """Give every member its own state again (before it diverges)."""
        if self.broken:
            return
        self.broken = True
        leader = self.members[0]
        memo = leader._memo_report
        for member, name in zip(self.followers, self.follower_names):
            member._stall_time_total = leader._stall_time_total
            member._windows_observed = leader._windows_observed
            member._memo_key = leader._memo_key
            member._memo_report = None if memo is None else memo._replace(unit=name)
        for member in self.members:
            history = member.history
            member.history = deque(history, history.maxlen)
            member._lockstep = None


def _partition(
    start: int, members: list[Lpme], activities: Sequence, frequencies: Sequence
) -> list[_Lockstep]:
    """Split ``members`` (registered from ``start``) into lockstep runs."""
    classes = []
    run = [members[0]]
    run_start = start
    key = _lockstep_key(members[0])
    inputs = (activities[start], frequencies[start])
    for offset, member in enumerate(members[1:], start + 1):
        member_key = _lockstep_key(member)
        member_inputs = (activities[offset], frequencies[offset])
        if member_key == key and member_inputs == inputs:
            run.append(member)
            continue
        classes.append(_Lockstep(run_start, run))
        run, run_start, key, inputs = [member], offset, member_key, member_inputs
    classes.append(_Lockstep(run_start, run))
    return classes


@dataclass
class Cpme:
    """The central engine for one chip."""

    power_limit_watts: float
    baseline_fraction: float = 0.35
    """Boot-time budget as a fraction of each unit's max draw (>= static)."""
    grant_step_watts: float = 1.0
    lpmes: dict[str, Lpme] = field(default_factory=dict)
    grants_issued: int = 0
    grants_denied: int = 0
    recaps: int = 0

    def __post_init__(self) -> None:
        # Conservation ledger: an *incrementally* tracked reserve, mirrored
        # against the recomputed `committed_watts` sum after every budget
        # movement. Grants never read it (reserve_watts stays the computed
        # property), so it cannot change decisions — it only catches float
        # drift between the two bookkeeping paths.
        self._ledger_reserve = self.power_limit_watts
        #: lockstep classes covering the units in registration order,
        #: built on the first window (see run_window)
        self._classes: list[_Lockstep] | None = None

    def register_units(self, units: dict[str, UnitPowerModel]) -> None:
        """Boot: create one LPME per unit with a conservative baseline."""
        if self.lpmes:
            raise PowerIntegrityError("units already registered")
        for name, model in units.items():
            baseline = max(
                model.min_power_watts() + 0.05,
                model.max_power_watts() * self.baseline_fraction,
            )
            self.lpmes[name] = Lpme(unit_model=model, budget_watts=baseline)
        self._classes = None
        if self.committed_watts > self.power_limit_watts:
            raise PowerIntegrityError(
                f"baseline budgets {self.committed_watts:.1f} W exceed the "
                f"{self.power_limit_watts:.1f} W limit"
            )
        self._ledger_reserve = self.power_limit_watts - self.committed_watts

    @property
    def committed_watts(self) -> float:
        return sum([lpme.budget_watts for lpme in self.lpmes.values()])

    @property
    def reserve_watts(self) -> float:
        return self.power_limit_watts - self.committed_watts

    def _assert_budgets(self, context: str | None) -> None:
        """committed <= limit always; after a budget movement (``context``
        names it) also committed + reserve == limit."""
        committed = self.committed_watts
        if committed > self.power_limit_watts + 1e-9:
            raise PowerIntegrityError(
                f"committed {committed:.2f} W exceeds limit "
                f"{self.power_limit_watts:.2f} W"
            )
        if context is None:
            return
        drift = committed + self._ledger_reserve - self.power_limit_watts
        if abs(drift) > 1e-9:
            raise PowerIntegrityError(
                f"budget conservation violated after {context}: committed "
                f"{committed:.9f} W + reserve "
                f"{self._ledger_reserve:.9f} W != limit "
                f"{self.power_limit_watts:.9f} W (drift {drift:+.3e} W)"
            )

    def set_power_limit(self, watts: float) -> float:
        """Re-cap the board limit (fleet governor interface); returns it.

        Raising the limit grows the reserve; nothing else moves. Tightening
        first shrinks the reserve, then claws back LPME budgets above their
        static floors — proportionally to each unit's excess, in
        registration order — so committed budgets never exceed the new
        limit. A limit the static floors alone cannot satisfy is refused.
        """
        if watts < 0:
            raise PowerIntegrityError(f"negative power limit {watts}")
        floors = {
            name: lpme.unit_model.min_power_watts()
            for name, lpme in self.lpmes.items()
        }
        floor_total = sum(floors.values())
        if watts < floor_total - 1e-9:
            worst = max(floors, key=lambda name: (floors[name], name))
            raise PowerIntegrityError(
                f"limit {watts:.2f} W below the {floor_total:.2f} W static "
                f"floor of registered units (largest: {worst} at "
                f"{floors[worst]:.2f} W)"
            )
        need = self.committed_watts - watts
        if need > 0:
            excess = {
                name: self.lpmes[name].budget_watts - floors[name]
                for name in self.lpmes
            }
            total_excess = sum(excess.values())
            scale = min(1.0, need / total_excess) if total_excess > 0 else 0.0
            for name, lpme in self.lpmes.items():
                take = excess[name] * scale
                if take > 0:
                    lpme.reclaim(take)
        self.power_limit_watts = watts
        self._ledger_reserve = watts - self.committed_watts
        self.recaps += 1
        self._assert_budgets(f"re-cap to {watts:.2f} W")
        return watts

    def handle_reports(self, reports: list[WindowReport]) -> dict[str, float]:
        """Process one window's LPME reports; returns grants made by unit.

        Returned budget is absorbed first, then borrow requests are served
        in order of how hard each unit is throttled (worst first), each in
        ``grant_step_watts`` increments while the reserve lasts — assuring
        "the overall power integrity is risk-free".
        """
        lpmes = self.lpmes
        requests = []
        moved = None
        for report in reports:
            if report.returned_watts:
                if report.unit not in lpmes:
                    raise PowerIntegrityError(
                        f"report from unknown unit {report.unit}"
                    )
                # The LPME already shrank its budget when it returned the
                # excess; credit the reserve ledger so conservation holds.
                self._ledger_reserve += report.returned_watts
                moved = report.unit
            if report.borrow_requested:
                requests.append(report)
        grants: dict[str, float] = {}
        if requests:
            requests.sort(key=lambda report: report.throttle, reverse=True)
        for report in requests:
            lpme = self.lpmes[report.unit]
            needed = max(
                self.grant_step_watts,
                report.projected_watts - report.budget_watts,
            )
            grant = min(needed, self.reserve_watts)
            if grant <= 0:
                self.grants_denied += 1
                continue
            lpme.grant(grant)
            grants[report.unit] = grant
            self._ledger_reserve -= grant
            moved = report.unit
            self.grants_issued += 1
        self._assert_budgets(
            None if moved is None else f"grant/return cycle touching {moved}"
        )
        return grants

    def run_window(
        self,
        activities: "Mapping[str, float] | Sequence[float]",
        frequencies: "Mapping[str, float] | Sequence[float]",
        window_ns: float,
    ) -> dict[str, WindowReport]:
        """Observe every LPME for one window, then process the reports.

        ``activities`` / ``frequencies`` map unit names to values (a
        missing unit is idle / at its curve's f_max), or are sequences with
        one value per unit in registration order.

        Each *lockstep class* — a run of consecutively registered LPMEs
        with equal calibration, budget and history that receive the same
        activity and frequency this window (in practice the four cores of
        one processing group) — is observed once, through its leader; the
        followers' reports and state are copied from that evaluation. A
        class whose members' inputs or state diverge is split before it is
        evaluated. Reports, budgets and grant order are exactly those of
        observing every LPME in turn.
        """
        lpmes = self.lpmes
        if isinstance(activities, Mapping):
            activities = [activities.get(name, 0.0) for name in lpmes]
        if isinstance(frequencies, Mapping):
            frequencies = [
                frequencies.get(name, lpme.unit_model.curve.f_max_ghz)
                for name, lpme in lpmes.items()
            ]
        if len(activities) != len(lpmes) or len(frequencies) != len(lpmes):
            raise ValueError(
                f"run_window needs one activity and one frequency per unit "
                f"({len(lpmes)}), got {len(activities)} and {len(frequencies)}"
            )
        classes = self._classes
        if classes is None or (
            classes[-1].start + len(classes[-1].members) if classes else 0
        ) != len(lpmes):
            # First window, or units were added to ``lpmes`` directly.
            for group in classes or ():
                group.break_up()
            classes = self._classes = (
                _partition(0, list(lpmes.values()), activities, frequencies)
                if lpmes else []
            )
        reports: dict[str, WindowReport] = {}
        settled = True
        position = 0
        while position < len(classes):
            group = classes[position]
            position += 1
            start = group.start
            activity = activities[start]
            f_ghz = frequencies[start]
            followers = group.followers
            if followers:
                size = len(followers) + 1
                stop = start + size
                if (
                    group.broken
                    or activities[start:stop].count(activity) != size
                    or frequencies[start:stop].count(f_ghz) != size
                ):
                    # Members diverged: split into runs that still agree,
                    # then evaluate those runs in this same pass.
                    group.break_up()
                    position -= 1
                    classes[position:position + 1] = _partition(
                        start, group.members, activities, frequencies
                    )
                    continue
            leader = group.members[0]
            report = reports[group.leader_name] = leader.observe(
                activity, f_ghz, window_ns
            )
            if report.borrow_requested or report.returned_watts:
                settled = False
            if not followers:
                continue
            if report is not group.leader_report:
                # A fresh evaluation (a memo replay reuses last window's
                # follower reports as it is).
                if report.returned_watts:
                    budget = leader.budget_watts
                    for member in followers:
                        member.budget_watts = budget
                fields = report[1:]
                make = WindowReport._make
                group.leader_report = report
                group.follower_reports = {
                    name: make((name,) + fields) for name in group.follower_names
                }
            reports.update(group.follower_reports)
        if not settled:
            # Only windows with borrows or returns can move budgets; a
            # settled window would make handle_reports a no-op re-assert.
            self.handle_reports(list(reports.values()))
        return reports
