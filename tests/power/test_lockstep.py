"""Lockstep LPME classes evaluate exactly like observing every LPME.

``Cpme.run_window`` observes each lockstep class (consecutive LPMEs with
equal calibration, budget and history that receive equal inputs) once,
through its leader. The oracle here is the plain per-LPME loop: observe
every unit in registration order, then ``handle_reports`` when anything
borrowed or returned. Both CPMEs get ``dtu2_power_units()`` and the same
seeded activity stream; every window's reports, and every unit's budget,
history and counters, must be identical — including across the events
that split a class.
"""

import random

import pytest

from repro.power.cpme import Cpme
from repro.power.model import dtu2_power_units

GROUPS, CORES_PER_GROUP = 6, 4
WINDOW_NS = 15_000.0


def _per_unit_window(cpme, activities, frequencies, window_ns):
    reports = {}
    settled = True
    for name, lpme in cpme.lpmes.items():
        reports[name] = report = lpme.observe(
            activities[name], frequencies[name], window_ns
        )
        if report.borrow_requested or report.returned_watts:
            settled = False
    if not settled:
        cpme.handle_reports(list(reports.values()))
    return reports


def _stream(seed, windows, hot=False):
    """Per-window (activities, frequencies): cores follow their group.

    ``hot`` keeps every group near full activity at the top clock, so
    borrow requests outrun the reserve.
    """
    rng = random.Random(seed)
    for _ in range(windows):
        if hot:
            group_activity = [rng.choice((1.0, 0.95)) for _ in range(GROUPS)]
            clock = 1.4
        else:
            group_activity = [
                0.0 if rng.random() < 0.3 else rng.choice((1.0, rng.random()))
                for _ in range(GROUPS)
            ]
            clock = rng.choice((1.0, 1.2, 1.4))
        activities, frequencies = {}, {}
        for core in range(GROUPS * CORES_PER_GROUP):
            activities[f"core{core}"] = group_activity[core // CORES_PER_GROUP]
            frequencies[f"core{core}"] = clock
        for dma in range(GROUPS):
            activities[f"dma{dma}"] = rng.choice((0.0, rng.random()))
            frequencies[f"dma{dma}"] = 1.0
        activities["hbm"] = rng.random()
        activities["fabric"] = rng.random()
        frequencies["hbm"] = frequencies["fabric"] = 1.0
        yield activities, frequencies


def _pair(limit):
    pair = []
    for _ in range(2):
        cpme = Cpme(power_limit_watts=limit)
        cpme.register_units(dtu2_power_units())
        pair.append(cpme)
    return pair


def _assert_same(classed, oracle, got, expected):
    assert got == expected
    assert list(got) == list(expected)
    for name, lpme in oracle.lpmes.items():
        twin = classed.lpmes[name]
        assert twin.budget_watts == lpme.budget_watts, name
        assert tuple(twin.history) == tuple(lpme.history), name
        assert twin.stall_time_total == lpme.stall_time_total, name
        assert twin.windows_observed == lpme.windows_observed, name
    assert classed.grants_issued == oracle.grants_issued
    assert classed.grants_denied == oracle.grants_denied
    assert classed._ledger_reserve == oracle._ledger_reserve


def _split_inside_a_group(cpme):
    """True when some group's four cores sit in more than one class."""
    for group in range(GROUPS):
        first = cpme.lpmes[f"core{group * CORES_PER_GROUP}"]
        members = [
            cpme.lpmes[f"core{group * CORES_PER_GROUP + k}"]
            for k in range(1, CORES_PER_GROUP)
        ]
        if first._lockstep is None or any(
            member._lockstep is not first._lockstep for member in members
        ):
            return True
    return False


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_class_path_matches_per_unit_loop(seed):
    classed, oracle = _pair(150.0)
    for activities, frequencies in _stream(seed, 300):
        expected = _per_unit_window(oracle, activities, frequencies, WINDOW_NS)
        got = classed.run_window(activities, frequencies, WINDOW_NS)
        _assert_same(classed, oracle, got, expected)
    assert oracle.grants_issued > 0


def test_reserve_running_out_inside_a_class_splits_it():
    # A tight board limit: hot groups borrow until the reserve runs dry,
    # so a class's later members are refused what its earlier ones got.
    classed, oracle = _pair(118.0)
    split = False
    for activities, frequencies in _stream(3, 300, hot=True):
        expected = _per_unit_window(oracle, activities, frequencies, WINDOW_NS)
        got = classed.run_window(activities, frequencies, WINDOW_NS)
        _assert_same(classed, oracle, got, expected)
        split = split or _split_inside_a_group(classed)
    assert oracle.grants_denied > 0
    assert split


def test_direct_grant_on_one_core_splits_its_class():
    classed, oracle = _pair(150.0)
    for window, (activities, frequencies) in enumerate(_stream(4, 200)):
        if window == 80:
            for cpme in (classed, oracle):
                cpme.lpmes["core5"].grant(0.5)
                cpme._ledger_reserve -= 0.5  # keep the conservation ledger
            assert _split_inside_a_group(classed)
        expected = _per_unit_window(oracle, activities, frequencies, WINDOW_NS)
        got = classed.run_window(activities, frequencies, WINDOW_NS)
        _assert_same(classed, oracle, got, expected)


def test_set_power_limit_reclaim_matches():
    classed, oracle = _pair(150.0)
    floor = sum(lpme.unit_model.min_power_watts() for lpme in oracle.lpmes.values())
    limits = {60: floor + 8.0, 140: 150.0, 200: floor + 3.0}
    for window, (activities, frequencies) in enumerate(_stream(5, 260)):
        if window in limits:
            for cpme in (classed, oracle):
                cpme.set_power_limit(limits[window])
        expected = _per_unit_window(oracle, activities, frequencies, WINDOW_NS)
        got = classed.run_window(activities, frequencies, WINDOW_NS)
        _assert_same(classed, oracle, got, expected)
    assert oracle.recaps == classed.recaps == 3


def test_sequence_inputs_match_mapping_inputs():
    by_name, by_position = _pair(150.0)
    names = list(by_position.lpmes)
    for activities, frequencies in _stream(6, 120):
        expected = by_name.run_window(activities, frequencies, WINDOW_NS)
        got = by_position.run_window(
            [activities[name] for name in names],
            [frequencies[name] for name in names],
            WINDOW_NS,
        )
        _assert_same(by_position, by_name, got, expected)


def test_sequence_inputs_need_one_value_per_unit():
    cpme, _ = _pair(150.0)
    with pytest.raises(ValueError, match="one activity and one frequency"):
        cpme.run_window([0.5] * 3, [1.4] * 3, WINDOW_NS)


def test_units_added_after_the_first_window_are_observed():
    from repro.power.lpme import Lpme
    from repro.power.model import DvfsCurve, UnitPowerModel, UnitPowerParams

    cpme, _ = _pair(150.0)
    activities, frequencies = next(_stream(7, 1))
    cpme.run_window(activities, frequencies, WINDOW_NS)
    spare = Lpme(
        unit_model=UnitPowerModel(
            UnitPowerParams("spare", 0.3, 1.0), DvfsCurve(1.0, 1.0)
        ),
        budget_watts=0.5,
    )
    cpme.lpmes["spare"] = spare
    cpme._ledger_reserve -= spare.budget_watts  # an out-of-band grant
    reports = cpme.run_window(activities, frequencies, WINDOW_NS)
    assert list(reports) == list(cpme.lpmes)
    assert spare.windows_observed == 1
