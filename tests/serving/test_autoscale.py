"""Unit tests for the autoscaler control loop (repro.serving.autoscale)."""

from dataclasses import fields

import pytest

from repro.core.errors import ReproRuntimeError
from repro.serving.autoscale import Autoscaler, AutoscalerConfig

MS = 1e6


def _tick(scaler, t_ms, active, bp=0.0, latencies=()):
    """Feed one window of observations, then evaluate at t_ms."""
    for slo_class, latency_ms in latencies:
        scaler.observe(slo_class, latency_ms)
    return scaler.evaluate(t_ms * MS, active, bp)


class TestConfigValidation:
    def test_holds_only_the_knobs_a_caller_sets(self):
        # The backpressure band is BACKPRESSURE_LOW/HIGH in the module.
        assert [f.name for f in fields(AutoscalerConfig)] == [
            "min_active", "max_active", "eval_interval_ms", "p99_targets_ms",
            "cooldown_ms", "scale_down_consecutive",
        ]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ReproRuntimeError, match="min_active"):
            AutoscalerConfig(min_active=0)
        with pytest.raises(ReproRuntimeError, match="max_active"):
            AutoscalerConfig(min_active=4, max_active=2)

    def test_bad_intervals_rejected(self):
        with pytest.raises(ReproRuntimeError, match="eval_interval"):
            AutoscalerConfig(eval_interval_ms=0.0)
        with pytest.raises(ReproRuntimeError, match="cooldown"):
            AutoscalerConfig(cooldown_ms=-1.0)

    def test_bad_streak_rejected(self):
        with pytest.raises(ReproRuntimeError, match="scale_down_consecutive"):
            AutoscalerConfig(scale_down_consecutive=0)

    def test_bad_target_rejected(self):
        with pytest.raises(ReproRuntimeError, match="target"):
            AutoscalerConfig(p99_targets_ms=(("interactive", 0.0),))


class TestScaleUp:
    def _scaler(self):
        return Autoscaler(AutoscalerConfig(
            eval_interval_ms=25.0, cooldown_ms=75.0,
            p99_targets_ms=(("interactive", 40.0),),
        ))

    def test_p99_over_target_votes_up(self):
        scaler = self._scaler()
        latencies = [("interactive", 90.0)] * 20
        assert _tick(scaler, 25, active=1, latencies=latencies) == 1
        assert scaler.actions[-1].direction == "up"
        assert "p99[interactive]" in scaler.actions[-1].reason

    def test_high_backpressure_votes_up_without_latency(self):
        scaler = self._scaler()
        assert _tick(scaler, 25, active=1, bp=0.9) == 1
        assert "backpressure" in scaler.actions[-1].reason

    def test_quiet_window_holds(self):
        scaler = self._scaler()
        latencies = [("interactive", 5.0)] * 20
        assert _tick(scaler, 25, active=1, latencies=latencies) == 0

    def test_cooldown_blocks_consecutive_ups(self):
        scaler = self._scaler()
        hot = [("interactive", 90.0)] * 20
        assert _tick(scaler, 25, active=1, latencies=hot) == 1
        assert _tick(scaler, 50, active=2, latencies=hot) == 0   # cooling
        assert _tick(scaler, 125, active=2, latencies=hot) == 1  # cooled

    def test_max_active_caps_growth(self):
        scaler = Autoscaler(AutoscalerConfig(max_active=2, cooldown_ms=0.0))
        assert _tick(scaler, 25, active=2, bp=1.0) == 0
        assert scaler.actions == []

    def test_infeasible_up_not_recorded(self):
        scaler = self._scaler()
        hot = [("interactive", 90.0)] * 20
        for latency in hot:
            scaler.observe(*latency)
        assert scaler.evaluate(25 * MS, 1, 0.0, can_up=False) == 0
        assert scaler.actions == []

    def test_untargeted_class_never_votes(self):
        scaler = self._scaler()
        latencies = [("batch", 10_000.0)] * 20
        assert _tick(scaler, 25, active=1, latencies=latencies) == 0


class TestScaleDown:
    def _scaler(self):
        return Autoscaler(AutoscalerConfig(
            eval_interval_ms=25.0, cooldown_ms=0.0,
            scale_down_consecutive=3,
            p99_targets_ms=(("interactive", 40.0),),
        ))

    def test_needs_consecutive_quiet_windows(self):
        scaler = self._scaler()
        calm = [("interactive", 2.0)] * 20
        assert _tick(scaler, 25, active=2, latencies=calm) == 0
        assert _tick(scaler, 50, active=2, latencies=calm) == 0
        assert _tick(scaler, 75, active=2, latencies=calm) == -1
        assert scaler.actions[-1].direction == "down"

    def test_busy_window_resets_the_streak(self):
        scaler = self._scaler()
        calm = [("interactive", 2.0)] * 20
        hot = [("interactive", 90.0)] * 20
        _tick(scaler, 25, active=2, latencies=calm)
        _tick(scaler, 50, active=2, latencies=hot)   # streak resets
        _tick(scaler, 75, active=2, latencies=calm)
        assert _tick(scaler, 100, active=2, latencies=calm) == 0
        assert _tick(scaler, 125, active=2, latencies=calm) == -1

    def test_never_below_min_active(self):
        scaler = self._scaler()
        calm = [("interactive", 2.0)] * 20
        for t in (25, 50, 75, 100):
            assert _tick(scaler, t, active=1, latencies=calm) == 0
        assert scaler.actions == []

    def test_high_p99_within_fraction_blocks_down(self):
        # p99 between fraction*target and target is neither up nor down.
        # 24 ms lands in the (10, 25] bucket, so the interpolated p99
        # (~24.9 ms) sits between fraction*target (20) and target (40).
        scaler = self._scaler()
        warm = [("interactive", 24.0)] * 20
        for t in (25, 50, 75, 100):
            assert _tick(scaler, t, active=2, latencies=warm) == 0

    def test_infeasible_down_not_recorded(self):
        scaler = self._scaler()
        for t in (25, 50):
            _tick(scaler, t, active=2)
        assert scaler.evaluate(75 * MS, 2, 0.0, can_down=False) == 0
        assert scaler.actions == []


class TestAudit:
    def test_action_counters_and_reversals(self):
        scaler = Autoscaler(AutoscalerConfig(
            cooldown_ms=0.0, scale_down_consecutive=1,
            p99_targets_ms=(("interactive", 40.0),),
        ))
        hot = [("interactive", 90.0)] * 20
        calm = [("interactive", 2.0)] * 20
        _tick(scaler, 25, active=1, latencies=hot)    # up
        _tick(scaler, 50, active=2, latencies=calm)   # down
        _tick(scaler, 75, active=1, latencies=hot)    # up
        assert scaler.scale_ups == 2
        assert scaler.scale_downs == 1
        assert scaler.reversals() == 2

    def test_windows_do_not_leak_between_evaluations(self):
        scaler = Autoscaler(AutoscalerConfig(
            cooldown_ms=0.0, p99_targets_ms=(("interactive", 40.0),),
        ))
        hot = [("interactive", 90.0)] * 20
        assert _tick(scaler, 25, active=1, latencies=hot) == 1
        # Next window is empty: the hot observations must not carry over.
        assert _tick(scaler, 125, active=2) == 0

    def test_reset_clears_history(self):
        scaler = Autoscaler(AutoscalerConfig(cooldown_ms=0.0))
        _tick(scaler, 25, active=1, bp=1.0)
        scaler.reset()
        assert scaler.actions == []
        assert scaler.scale_ups == 0
        # Fresh state behaves exactly like a new scaler.
        assert _tick(scaler, 25, active=1, bp=1.0) == 1
