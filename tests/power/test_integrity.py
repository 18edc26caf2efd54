"""Unit tests for power-integrity management (LPME + CPME, §IV-F1, Fig. 9)."""

import pytest

from repro.power.cpme import Cpme, PowerIntegrityError
from repro.power.errors import BudgetFloorError
from repro.power.lpme import Lpme, WindowReport
from repro.power.model import DvfsCurve, UnitPowerModel, UnitPowerParams, dtu2_power_units


def _unit(dynamic=4.0):
    return UnitPowerModel(
        UnitPowerParams("u", static_watts=0.5, dynamic_watts_peak=dynamic),
        DvfsCurve(1.0, 1.4),
    )


class TestLpme:
    def test_under_budget_no_throttle(self):
        lpme = Lpme(unit_model=_unit(), budget_watts=10.0)
        report = lpme.observe(activity=1.0, f_ghz=1.4, window_ns=1000.0)
        assert report.throttle == 0.0

    def test_over_budget_throttles_to_fixpoint(self):
        lpme = Lpme(unit_model=_unit(), budget_watts=2.5)
        report = lpme.observe(activity=1.0, f_ghz=1.4, window_ns=1000.0)
        # allowed dynamic = 2.0 of 4.0 -> half the work shed
        assert report.throttle == pytest.approx(0.5)
        throttled_power = lpme.unit_model.power_watts(
            (1 - report.throttle) * 1.0, 1.4
        )
        assert throttled_power == pytest.approx(2.5)

    def test_budget_below_static_floor_rejected(self):
        with pytest.raises(ValueError):
            Lpme(unit_model=_unit(), budget_watts=0.1)

    def test_borrow_requested_after_m_of_n_starved_windows(self):
        lpme = Lpme(unit_model=_unit(), budget_watts=2.5, borrow_m=3, borrow_n=5)
        requests = [
            lpme.observe(1.0, 1.4, 1000.0).borrow_requested for _ in range(5)
        ]
        assert not any(requests[:2])  # history too short at first
        assert requests[4]

    def test_excess_budget_returned(self):
        lpme = Lpme(unit_model=_unit(), budget_watts=10.0)
        report = lpme.observe(activity=0.1, f_ghz=1.0, window_ns=1000.0)
        assert report.returned_watts > 0
        assert lpme.budget_watts < 10.0
        assert lpme.budget_watts >= lpme.unit_model.min_power_watts()

    def test_grant_raises_budget_and_clears_history(self):
        lpme = Lpme(unit_model=_unit(), budget_watts=2.5)
        for _ in range(5):
            lpme.observe(1.0, 1.4, 1000.0)
        lpme.grant(2.0)
        assert lpme.budget_watts == pytest.approx(4.5)
        assert len(lpme.history) == 0

    def test_negative_grant_rejected(self):
        with pytest.raises(ValueError):
            Lpme(unit_model=_unit(), budget_watts=3.0).grant(-1.0)

    def test_effective_slowdown(self):
        lpme = Lpme(unit_model=_unit(), budget_watts=2.5)
        report = lpme.observe(1.0, 1.4, 1000.0)
        assert lpme.effective_slowdown(report) == pytest.approx(2.0)

    def test_reclaim_below_floor_raises_typed_error(self):
        lpme = Lpme(unit_model=_unit(), budget_watts=2.5)
        with pytest.raises(BudgetFloorError, match="static floor"):
            lpme.reclaim(2.1)  # 0.4 W left < the 0.5 W static floor
        assert lpme.budget_watts == 2.5
        assert issubclass(BudgetFloorError, PowerIntegrityError)
        assert issubclass(BudgetFloorError, RuntimeError)

    def test_full_throttle_slowdown_raises_typed_error(self):
        lpme = Lpme(unit_model=_unit(), budget_watts=2.5)
        report = lpme.observe(1.0, 1.4, 1000.0)._replace(throttle=1.0)
        with pytest.raises(BudgetFloorError, match="below static floor"):
            lpme.effective_slowdown(report)

    def test_borrow_boundary_exactly_m_of_n(self):
        """Borrow fires at exactly M starved windows of the last N, not M-1.

        With ``_unit()`` and a 2.5 W budget, activity 1.0 at 1.4 GHz
        projects 4.5 W and starves the window (throttle 0.5); activity
        0.45 projects 2.3 W, throttles nothing, and returns nothing
        (keep = 2.3 * 1.25 > 2.5), so the budget and history evolve only
        through the starved/ok pattern under test.
        """
        STARVED, OK = 1.0, 0.45

        def run(pattern):
            lpme = Lpme(
                unit_model=_unit(), budget_watts=2.5, borrow_m=3, borrow_n=5
            )
            return [
                lpme.observe(activity, 1.4, 1000.0).borrow_requested
                for activity in pattern
            ]

        at_m = run([STARVED, STARVED, OK, OK, STARVED])
        assert not any(at_m[:4])  # window 5 completes the history
        assert at_m[4]  # exactly M = 3 of N = 5 starved

        below_m = run([STARVED, STARVED, OK, OK, OK])
        assert not any(below_m)  # M - 1 starved: no request

        rolling = run([STARVED, OK, OK, OK, STARVED, STARVED])
        assert not any(rolling)  # oldest starved window rolled out

    def test_ok_window_between_starved_does_not_return_budget(self):
        lpme = Lpme(unit_model=_unit(), budget_watts=2.5)
        report = lpme.observe(0.45, 1.4, 1000.0)
        assert report.throttle == 0.0
        assert report.returned_watts == 0.0
        assert lpme.budget_watts == 2.5


class TestCpme:
    def test_baseline_budgets_fit_limit(self):
        cpme = Cpme(power_limit_watts=150.0)
        cpme.register_units(dtu2_power_units())
        assert cpme.committed_watts <= 150.0
        assert cpme.reserve_watts > 0

    def test_double_registration_rejected(self):
        cpme = Cpme(power_limit_watts=150.0)
        units = dtu2_power_units()
        cpme.register_units(units)
        with pytest.raises(PowerIntegrityError):
            cpme.register_units(units)

    def test_limit_too_small_rejected(self):
        cpme = Cpme(power_limit_watts=10.0)
        with pytest.raises(PowerIntegrityError):
            cpme.register_units(dtu2_power_units())

    def test_grants_never_exceed_limit(self):
        """The §IV-F1 invariant: total committed budget <= board limit."""
        cpme = Cpme(power_limit_watts=150.0)
        cpme.register_units(dtu2_power_units())
        activities = {name: 1.0 for name in cpme.lpmes}
        frequencies = {}
        for _ in range(50):
            cpme.run_window(activities, frequencies, window_ns=10_000.0)
            assert cpme.committed_watts <= 150.0 + 1e-9

    def test_hot_unit_eventually_unthrottled(self):
        """Budget borrowing relieves a starved engine (Fig. 9)."""
        cpme = Cpme(power_limit_watts=150.0)
        cpme.register_units(dtu2_power_units())
        activities = {f"core{i}": 1.0 for i in range(24)}
        last_reports = None
        for _ in range(30):
            last_reports = cpme.run_window(activities, {}, window_ns=10_000.0)
        core_throttles = [
            report.throttle
            for name, report in last_reports.items()
            if name.startswith("core")
        ]
        assert max(core_throttles) == 0.0
        assert cpme.grants_issued > 0

    def test_oversubscription_denies_grants(self):
        """With everything maxed, the reserve drains and requests get denied,
        yet integrity holds."""
        cpme = Cpme(power_limit_watts=60.0, baseline_fraction=0.30)
        units = {
            f"u{i}": UnitPowerModel(
                UnitPowerParams(f"u{i}", 0.5, 9.5), DvfsCurve(1.0, 1.4)
            )
            for i in range(10)
        }
        cpme.register_units(units)
        activities = {name: 1.0 for name in units}
        for _ in range(30):
            cpme.run_window(activities, {}, 10_000.0)
        assert cpme.grants_denied > 0
        assert cpme.committed_watts <= 60.0 + 1e-9
        assert cpme.reserve_watts < 1.0


def _drift(cpme):
    return cpme.committed_watts + cpme._ledger_reserve - cpme.power_limit_watts


class TestBudgetConservation:
    """The conservation guard: committed + reserve == limit, always.

    The ledger reserve is tracked incrementally across grants, returns and
    re-caps, and mirrored against the recomputed committed sum; any drift
    beyond 1e-9 W means a budget movement was double-counted or lost.
    """

    def test_holds_through_grant_return_cycles(self):
        cpme = Cpme(power_limit_watts=150.0)
        cpme.register_units(dtu2_power_units())
        assert abs(_drift(cpme)) <= 1e-9
        hot = {name: 1.0 for name in cpme.lpmes}
        cold = {name: 0.05 for name in cpme.lpmes}
        for window in range(60):
            # Alternate starvation (borrows) and idleness (returns).
            cpme.run_window(hot if (window // 10) % 2 == 0 else cold, {}, 10_000.0)
            assert abs(_drift(cpme)) <= 1e-9
        assert cpme.grants_issued > 0  # the cycle actually moved budget

    def test_holds_through_recap_cycles(self):
        cpme = Cpme(power_limit_watts=150.0)
        cpme.register_units(dtu2_power_units())
        floor_total = sum(
            lpme.unit_model.min_power_watts() for lpme in cpme.lpmes.values()
        )
        hot = {name: 1.0 for name in cpme.lpmes}
        for limit in (150.0, floor_total + 1.0, 150.0, floor_total + 5.0, 150.0):
            cpme.set_power_limit(limit)
            assert abs(_drift(cpme)) <= 1e-9
            for _ in range(5):
                cpme.run_window(hot, {}, 10_000.0)
                assert abs(_drift(cpme)) <= 1e-9
        assert cpme.recaps == 5

    def test_violation_names_the_offending_unit(self):
        """A corrupted ledger is caught at the next movement, not silently."""
        cpme = Cpme(power_limit_watts=50.0)
        cpme.register_units({"a": _unit(), "b": _unit()})
        cpme._ledger_reserve += 0.5  # simulate lost-update drift
        lpme_a = cpme.lpmes["a"]
        lpme_a.budget_watts -= 0.2  # the LPME's side of a return
        report = WindowReport(
            unit="a",
            activity=0.0,
            projected_watts=0.5,
            budget_watts=lpme_a.budget_watts,
            throttle=0.0,
            borrow_requested=False,
            returned_watts=0.2,
        )
        with pytest.raises(
            PowerIntegrityError, match="grant/return cycle touching a"
        ):
            cpme.handle_reports([report])

    def test_settled_windows_move_nothing(self):
        cpme = Cpme(power_limit_watts=150.0)
        cpme.register_units(dtu2_power_units())
        cpme.run_window({}, {}, 10_000.0)  # idle: boot excess returned
        committed = cpme.committed_watts
        reserve = cpme._ledger_reserve
        for _ in range(5):
            cpme.run_window({}, {}, 10_000.0)  # settled: nothing moves
        assert cpme.committed_watts == committed
        assert cpme._ledger_reserve == reserve
        assert cpme.grants_issued == 0
        assert abs(_drift(cpme)) <= 1e-9


class TestRecap:
    """set_power_limit: the fleet governor's re-cap entry point."""

    def test_tighten_claws_back_proportionally_to_excess(self):
        cpme = Cpme(power_limit_watts=50.0)
        cpme.register_units({"a": _unit(), "b": _unit()})
        cpme.lpmes["a"].grant(1.0)  # unequal budgets above the floors
        floors = {
            name: lpme.unit_model.min_power_watts()
            for name, lpme in cpme.lpmes.items()
        }
        before = {name: lpme.budget_watts for name, lpme in cpme.lpmes.items()}
        need = 1.0
        new_limit = cpme.committed_watts - need
        excess = {name: before[name] - floors[name] for name in before}
        scale = need / sum(excess.values())
        cpme.set_power_limit(new_limit)
        for name, lpme in cpme.lpmes.items():
            assert lpme.budget_watts == pytest.approx(
                before[name] - excess[name] * scale
            )
            assert lpme.budget_watts >= floors[name]
        assert cpme.committed_watts <= new_limit + 1e-9
        assert abs(_drift(cpme)) <= 1e-9

    def test_tighten_to_floor_leaves_floors_intact(self):
        cpme = Cpme(power_limit_watts=50.0)
        cpme.register_units({"a": _unit(), "b": _unit()})
        floor_total = sum(
            lpme.unit_model.min_power_watts() for lpme in cpme.lpmes.values()
        )
        cpme.set_power_limit(floor_total)
        for lpme in cpme.lpmes.values():
            assert lpme.budget_watts == pytest.approx(
                lpme.unit_model.min_power_watts()
            )

    def test_below_floor_refused_names_largest_floor_unit(self):
        cpme = Cpme(power_limit_watts=50.0)
        cpme.register_units(
            {
                "big": UnitPowerModel(
                    UnitPowerParams("big", static_watts=2.0, dynamic_watts_peak=4.0),
                    DvfsCurve(1.0, 1.4),
                ),
                "small": _unit(),
            }
        )
        with pytest.raises(PowerIntegrityError, match="big"):
            cpme.set_power_limit(1.0)
        assert cpme.power_limit_watts == 50.0  # refusal leaves state intact

    def test_raise_grows_reserve_only(self):
        cpme = Cpme(power_limit_watts=50.0)
        cpme.register_units({"a": _unit(), "b": _unit()})
        budgets = {name: lpme.budget_watts for name, lpme in cpme.lpmes.items()}
        reserve = cpme.reserve_watts
        cpme.set_power_limit(60.0)
        assert cpme.reserve_watts == pytest.approx(reserve + 10.0)
        for name, lpme in cpme.lpmes.items():
            assert lpme.budget_watts == budgets[name]
        assert cpme.recaps == 1
        assert abs(_drift(cpme)) <= 1e-9

    def test_negative_limit_rejected(self):
        cpme = Cpme(power_limit_watts=50.0)
        cpme.register_units({"a": _unit()})
        with pytest.raises(PowerIntegrityError):
            cpme.set_power_limit(-1.0)

    def test_returned_budget_reabsorbed_before_grants(self):
        """Reabsorption ordering: returns credit the reserve before borrow
        requests are served, so a grant can be funded by budget returned in
        the very same window even when the reserve started empty —
        regardless of report order."""
        cpme = Cpme(power_limit_watts=50.0)
        cpme.register_units({"a": _unit(), "b": _unit()})
        cpme.set_power_limit(cpme.committed_watts)  # drain the reserve
        assert cpme.reserve_watts == pytest.approx(0.0)
        lpme_a = cpme.lpmes["a"]
        lpme_b = cpme.lpmes["b"]
        returned = 0.4
        lpme_a.budget_watts -= returned  # the LPME's side of the return
        reports = [
            # The borrower is listed *first*: ordering must not matter.
            WindowReport(
                unit="b",
                activity=1.0,
                projected_watts=4.5,
                budget_watts=lpme_b.budget_watts,
                throttle=0.5,
                borrow_requested=True,
                returned_watts=0.0,
            ),
            WindowReport(
                unit="a",
                activity=0.0,
                projected_watts=0.5,
                budget_watts=lpme_a.budget_watts,
                throttle=0.0,
                borrow_requested=False,
                returned_watts=returned,
            ),
        ]
        grants = cpme.handle_reports(reports)
        assert grants == {"b": pytest.approx(returned)}
        assert cpme.grants_denied == 0
        assert cpme.committed_watts <= cpme.power_limit_watts + 1e-9
        assert abs(_drift(cpme)) <= 1e-9
