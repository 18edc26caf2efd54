"""Unit tests for SLO-class admission (repro.serving.admission)."""

import pytest

from repro.core.errors import ReproRuntimeError
from repro.serving.admission import (
    DEFAULT_SLO_CLASSES,
    AdmissionController,
    AdmissionPolicy,
    SloClass,
)


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

    def test_class_for_falls_back_to_default(self):
        policy = AdmissionPolicy()
        assert policy.class_for("standard").name == "standard"
        assert policy.class_for("unheard-of").name == "standard"

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
        bp = ctl.backpressure({"interactive": 32, "standard": 32, "batch": 32})
        assert bp == pytest.approx(0.5)

    def test_backpressure_clamps_to_one(self):
        ctl = AdmissionController(AdmissionPolicy())
        assert ctl.backpressure({"interactive": 1000}) == 1.0

    def test_empty_depths_is_zero(self):
        assert AdmissionController(AdmissionPolicy()).backpressure({}) == 0.0


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
        ctl.update(0.9)  # level 1
        assert ctl.sheds("batch")
        assert not ctl.sheds("standard")
        assert not ctl.sheds("interactive")
        ctl.update(0.9)  # level 2
        assert ctl.sheds("batch")
        assert ctl.sheds("standard")
        assert not ctl.sheds("interactive")


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
