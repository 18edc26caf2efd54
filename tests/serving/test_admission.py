"""Unit tests for SLO-class admission (repro.serving.admission)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ReproRuntimeError
from repro.obs.metrics import DEFAULT_BUCKETS_MS, HistogramSeries
from repro.serving.admission import (
    DEFAULT_CLASS,
    DEFAULT_SLO_CLASSES,
    AdmissionController,
    AdmissionPolicy,
    SloClass,
)
from repro.serving.routing import Backlog
from repro.serving.server import RasConfig, SloClassStats, bucket_counts
from repro.serving.workload import Request


def _backlog(depths, now=0.0, stale=None):
    """A Backlog whose class depths at ``now`` are ``depths``; ``stale``
    adds finish times at or before ``now`` that the read must prune."""
    backlog = Backlog(["t"], RasConfig(), AdmissionPolicy())
    stale = stale or {}
    for name in sorted(set(depths) | set(stale)):
        request = Request(0, "t", 0.0, slo_class=name)
        for finish, count in ((now + 1.0, depths.get(name, 0)),
                              (now, stale.get(name, 0))):
            if count:
                backlog.push([request] * count, finish)
    return backlog


class TestSloClassValidation:
    def test_bad_queue_limit_rejected(self):
        with pytest.raises(ReproRuntimeError, match="queue_limit"):
            SloClass("x", deadline_ms=10.0, queue_limit=0, shed_priority=1)

    def test_bad_deadline_rejected(self):
        with pytest.raises(ReproRuntimeError, match="deadline"):
            SloClass("x", deadline_ms=0.0, queue_limit=8, shed_priority=1)

    def test_none_deadline_is_best_effort(self):
        cls = SloClass("x", deadline_ms=None, queue_limit=8, shed_priority=1)
        assert cls.deadline_ms is None

    def test_negative_priority_rejected(self):
        with pytest.raises(ReproRuntimeError, match="shed_priority"):
            SloClass("x", deadline_ms=10.0, queue_limit=8, shed_priority=-1)


class TestPolicyValidation:
    def test_needs_classes(self):
        with pytest.raises(ReproRuntimeError, match="class"):
            AdmissionPolicy(classes=())

    def test_duplicate_names_rejected(self):
        cls = SloClass("x", 10.0, 8, 1)
        with pytest.raises(ReproRuntimeError, match="duplicate"):
            AdmissionPolicy(classes=(cls, cls))

    def test_bad_hysteresis_rejected(self):
        with pytest.raises(ReproRuntimeError, match="brownout"):
            AdmissionPolicy(brownout_enter=0.5, brownout_exit=0.5)

    def test_classes_without_the_default_class_rejected(self):
        vip = SloClass("vip", 10.0, 8, 0)
        with pytest.raises(ReproRuntimeError, match="default class"):
            AdmissionPolicy(classes=(vip,))

    def test_max_brownout_level_counts_shedable_classes(self):
        # Default: standard + batch shedable, interactive protected.
        assert AdmissionPolicy().max_brownout_level == 2

    def test_default_classes_shape(self):
        names = [cls.name for cls in DEFAULT_SLO_CLASSES]
        assert names == ["interactive", "standard", "batch"]
        assert DEFAULT_SLO_CLASSES[0].shed_priority == 0


class TestBackpressure:
    def test_backpressure_is_worst_class_fullness(self):
        ctl = AdmissionController(AdmissionPolicy())
        # interactive limit 64, standard 128, batch 256.
        backlog = _backlog({"interactive": 32, "standard": 32, "batch": 32})
        assert ctl.backpressure(backlog, 0.0) == pytest.approx(0.5)

    def test_backpressure_clamps_to_one(self):
        ctl = AdmissionController(AdmissionPolicy())
        assert ctl.backpressure(_backlog({"interactive": 1000}), 0.0) == 1.0

    def test_empty_depths_is_zero(self):
        ctl = AdmissionController(AdmissionPolicy())
        assert ctl.backpressure(_backlog({}), 0.0) == 0.0

    def test_finished_requests_do_not_count(self):
        ctl = AdmissionController(AdmissionPolicy())
        backlog = _backlog({"interactive": 16}, now=5.0,
                           stale={"interactive": 48})
        assert ctl.backpressure(backlog, 5.0) == pytest.approx(0.25)

    def test_unknown_class_stays_out(self):
        ctl = AdmissionController(AdmissionPolicy())
        assert ctl.backpressure(_backlog({"mystery": 1000}), 0.0) == 0.0


class TestBrownoutHysteresis:
    def _ctl(self):
        return AdmissionController(
            AdmissionPolicy(brownout_enter=0.8, brownout_exit=0.3)
        )

    def test_level_steps_up_at_enter(self):
        ctl = self._ctl()
        assert ctl.update(0.79) == 0
        assert ctl.update(0.8) == 1
        assert ctl.update(0.9) == 2
        assert ctl.update(0.95) == 2  # capped at max level

    def test_level_steps_down_at_exit_only(self):
        ctl = self._ctl()
        ctl.update(0.9)
        assert ctl.update(0.5) == 1   # dead band: holds
        assert ctl.update(0.3) == 0   # at/below exit: steps down
        assert ctl.update(0.1) == 0

    def test_accounting_tracks_peak_and_changes(self):
        ctl = self._ctl()
        ctl.update(0.9)
        ctl.update(0.85)
        ctl.update(0.2)
        assert ctl.peak_backpressure == pytest.approx(0.9)
        assert ctl.max_level_seen == 2
        assert ctl.level_changes == 3

    def test_reset_restores_pristine_state(self):
        ctl = self._ctl()
        ctl.update(0.9)
        ctl.reset()
        assert ctl.brownout_level == 0
        assert ctl.peak_backpressure == 0.0
        assert ctl.level_changes == 0

    def test_shed_order_batch_then_standard_never_interactive(self):
        ctl = self._ctl()

        def sheds(slo_class):
            return ctl.decide(slo_class, 0, 0.0, 1.0).reason == "brownout"

        ctl.update(0.9)  # level 1
        assert sheds("batch")
        assert not sheds("standard")
        assert not sheds("interactive")
        ctl.update(0.9)  # level 2
        assert sheds("batch")
        assert sheds("standard")
        assert sheds("mystery")  # an unnamed class sheds with standard
        assert not sheds("interactive")


class TestDecide:
    def _ctl(self):
        return AdmissionController(AdmissionPolicy())

    def test_admits_under_nominal_conditions(self):
        decision = self._ctl().decide(
            "interactive", depth=0, predicted_wait_ns=0.0, service_ns=1e6
        )
        assert decision.admitted
        assert decision.reason == ""

    def test_queue_full_sheds(self):
        decision = self._ctl().decide(
            "interactive", depth=64, predicted_wait_ns=0.0, service_ns=1e6
        )
        assert not decision.admitted
        assert decision.reason == "queue-full"

    def test_deadline_sheds_predictably_late_arrivals(self):
        # interactive deadline 50 ms: 60 ms predicted wait -> shed now.
        decision = self._ctl().decide(
            "interactive", depth=0, predicted_wait_ns=60e6, service_ns=1e6
        )
        assert not decision.admitted
        assert decision.reason == "deadline"

    def test_best_effort_class_never_deadline_shed(self):
        decision = self._ctl().decide(
            "batch", depth=0, predicted_wait_ns=1e12, service_ns=1e6
        )
        assert decision.admitted

    def test_brownout_precedes_other_checks(self):
        ctl = self._ctl()
        ctl.update(1.0)
        decision = ctl.decide(
            "batch", depth=0, predicted_wait_ns=0.0, service_ns=1e6
        )
        assert not decision.admitted
        assert decision.reason == "brownout"

    def test_protected_class_admitted_even_at_max_brownout(self):
        ctl = self._ctl()
        ctl.update(1.0)
        ctl.update(1.0)
        decision = ctl.decide(
            "interactive", depth=0, predicted_wait_ns=0.0, service_ns=1e6
        )
        assert decision.admitted

    def test_unknown_class_uses_default_policy(self):
        # Falls back to "standard": deadline 250 ms.
        decision = self._ctl().decide(
            "mystery", depth=0, predicted_wait_ns=300e6, service_ns=1e6
        )
        assert not decision.admitted
        assert decision.reason == "deadline"

    def test_unknown_class_counts_its_own_depth(self):
        # A full "standard" queue does not fill the unknown class's queue;
        # its own depth meets standard's limit (128).
        ctl = self._ctl()
        full = {"standard": 128}
        assert ctl.admit("mystery", _backlog(full), 0.0, 0.0, 1e6).admitted
        decision = ctl.admit(
            "mystery", _backlog({"mystery": 128}), 0.0, 0.0, 1e6
        )
        assert decision.reason == "queue-full"

    def test_decisions_are_shared_constants(self):
        ctl = self._ctl()
        first = ctl.decide("batch", 0, 0.0, 1e6)
        assert first.admitted
        assert ctl.decide("standard", 0, 0.0, 1e6) is first
        full = ctl.decide("batch", 256, 0.0, 1e6)
        assert full.reason == "queue-full"
        assert ctl.decide("interactive", 64, 0.0, 1e6) is full


# ---------------------------------------------------------------------------
# admit() against the historical per-arrival steps
# ---------------------------------------------------------------------------


class _HistoricalSteps:
    """The backpressure -> update -> decide steps admission ran per
    arrival before class rules were resolved once at construction,
    copied as the oracle: depths arrive as a dict, and every decision
    resolves its class by scanning the policy."""

    def __init__(self, policy):
        self.policy = policy
        self.brownout_level = 0
        self.peak_backpressure = 0.0
        self.max_level_seen = 0
        self.level_changes = 0
        self._shed_order = tuple(
            cls.name
            for cls in sorted(
                policy.classes,
                key=lambda cls: (-cls.shed_priority, cls.name),
            )
            if cls.shed_priority > 0
        )
        self._limits = tuple(
            (cls.name, cls.queue_limit) for cls in policy.classes
        )

    def class_for(self, name):
        for cls in self.policy.classes:
            if cls.name == name:
                return cls
        return self.class_for(DEFAULT_CLASS)

    def backpressure(self, depths):
        worst = 0.0
        for name, limit in self._limits:
            worst = max(worst, min(1.0, depths.get(name, 0) / limit))
        return worst

    def update(self, backpressure):
        self.peak_backpressure = max(self.peak_backpressure, backpressure)
        if (
            backpressure >= self.policy.brownout_enter
            and self.brownout_level < self.policy.max_brownout_level
        ):
            self.brownout_level += 1
            self.level_changes += 1
        elif (
            backpressure <= self.policy.brownout_exit
            and self.brownout_level > 0
        ):
            self.brownout_level -= 1
            self.level_changes += 1
        self.max_level_seen = max(self.max_level_seen, self.brownout_level)

    def decide(self, slo_class, depth, predicted_wait_ns, service_ns):
        cls = self.class_for(slo_class)
        if cls.name in self._shed_order[: self.brownout_level]:
            return (False, "brownout")
        if depth >= cls.queue_limit:
            return (False, "queue-full")
        if (
            cls.deadline_ms is not None
            and predicted_wait_ns + service_ns > cls.deadline_ms * 1e6
        ):
            return (False, "deadline")
        return (True, "")

    def admit(self, slo_class, depths, predicted_wait_ns, service_ns, floor):
        self.update(max(self.backpressure(depths), floor))
        return self.decide(
            slo_class, depths.get(slo_class, 0), predicted_wait_ns, service_ns
        )


NAMES = ("interactive", "standard", "batch", "gold")
UNKNOWN = ("mystery", "bulk")


@st.composite
def _policies(draw):
    classes = []
    for name in NAMES:
        if name != DEFAULT_CLASS and not draw(st.booleans()):
            continue
        classes.append(
            SloClass(
                name,
                deadline_ms=draw(
                    st.none() | st.floats(min_value=0.5, max_value=300.0)
                ),
                queue_limit=draw(st.integers(1, 40)),
                shed_priority=draw(st.integers(0, 3)),
            )
        )
    exit_ = draw(st.floats(min_value=0.0, max_value=0.9))
    enter = draw(st.floats(min_value=exit_ + 0.01, max_value=1.0))
    return AdmissionPolicy(
        classes=tuple(classes), brownout_enter=enter, brownout_exit=exit_
    )


_ARRIVALS = st.lists(
    st.tuples(
        st.sampled_from(NAMES + UNKNOWN),
        st.dictionaries(
            st.sampled_from(NAMES + UNKNOWN),
            st.integers(0, 8) | st.integers(0, 60),
            max_size=6,
        ),
        st.dictionaries(
            st.sampled_from(NAMES + UNKNOWN), st.integers(0, 5), max_size=3
        ),
        st.floats(min_value=0.0, max_value=4e8),
        st.floats(min_value=1e3, max_value=5e7),
        st.sampled_from([0.0, 0.0, 0.3, 0.6, 0.9, 1.0])
        | st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(policy=_policies(), arrivals=_ARRIVALS)
def test_admit_matches_the_historical_steps(policy, arrivals):
    ctl = AdmissionController(policy)
    oracle = _HistoricalSteps(policy)
    now = 0.0
    for slo_class, depths, stale, wait_ns, service_ns, floor in arrivals:
        now += 1e6
        decision = ctl.admit(
            slo_class, _backlog(depths, now, stale), now, wait_ns,
            service_ns, pressure_floor=floor,
        )
        want = oracle.admit(slo_class, depths, wait_ns, service_ns, floor)
        assert (decision.admitted, decision.reason) == want
        assert ctl.brownout_level == oracle.brownout_level
        assert ctl.peak_backpressure == oracle.peak_backpressure
        assert ctl.max_level_seen == oracle.max_level_seen
        assert ctl.level_changes == oracle.level_changes


# ---------------------------------------------------------------------------
# class percentiles binned in one pass
# ---------------------------------------------------------------------------


def _observed(values):
    series = HistogramSeries(DEFAULT_BUCKETS_MS)
    for value in values:
        series.observe(value)
    return series


@pytest.mark.parametrize(
    "values",
    [
        list(DEFAULT_BUCKETS_MS),
        [0.0],
        [DEFAULT_BUCKETS_MS[-1] * 2],
        [0.0, 0.1, 0.1, 0.5, 2.5, 2.5, 2.5, 99.9, 100.0, 100.0001, 2e4],
        [1000.0] * 97 + [10_000.0, 10_000.0, 10_000.5],
        [],
    ],
    ids=["edges", "zero", "past-last", "mixed", "tail", "empty"],
)
def test_set_percentiles_bins_like_observe(values):
    series = _observed(values)
    assert bucket_counts(values, DEFAULT_BUCKETS_MS) == series.counts
    stats = SloClassStats("standard")
    stats.set_percentiles(values, DEFAULT_BUCKETS_MS)
    assert (stats.p50_ms, stats.p95_ms, stats.p99_ms) == (
        series.quantile(0.50), series.quantile(0.95), series.quantile(0.99)
    )


def test_every_bucket_edge_lands_in_its_own_bucket():
    for index, edge in enumerate(DEFAULT_BUCKETS_MS):
        counts = bucket_counts([edge], DEFAULT_BUCKETS_MS)
        assert counts == _observed([edge]).counts
        assert counts[index] == 1
