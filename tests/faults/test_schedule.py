"""FaultSchedule / StormPhase: windows, ramps, kills, rate composition."""

import pytest

from repro.core.errors import ReproRuntimeError
from repro.faults import FaultPlan, FaultSchedule, StormPhase


def _s(seconds):
    return seconds * 1e9


def _silent(schedule, seconds, device=0):
    return schedule.plan_at(_s(seconds), device).silent_event_rate


class TestStormPhase:
    def test_window_is_half_open(self):
        phase = StormPhase(0.1, 0.2, FaultPlan(dma_corrupt_rate=0.5))
        assert not phase.active(_s(0.0999), device=0)
        assert phase.active(_s(0.1), device=0)
        assert phase.active(_s(0.1999), device=0)
        assert not phase.active(_s(0.2), device=0)

    def test_device_targeting(self):
        phase = StormPhase(
            0.0, 1.0, FaultPlan(dma_corrupt_rate=0.5), devices=(1, 3)
        )
        assert phase.active(_s(0.5), device=1)
        assert phase.active(_s(0.5), device=3)
        assert not phase.active(_s(0.5), device=0)
        assert not phase.active(_s(0.5), device=2)

    def test_untargeted_phase_hits_every_device(self):
        phase = StormPhase(0.0, 1.0, FaultPlan(dma_corrupt_rate=0.5))
        assert all(phase.active(_s(0.5), device=d) for d in range(8))

    def test_ramp_intensity_grows_linearly(self):
        phase = StormPhase(
            0.0, 1.0, FaultPlan(dma_corrupt_rate=0.8), ramp=True
        )
        assert phase.intensity(_s(0.0)) == 0.0
        assert phase.intensity(_s(0.5)) == pytest.approx(0.5)
        assert phase.intensity(_s(1.0)) == 1.0
        flat = StormPhase(0.0, 1.0, FaultPlan(dma_corrupt_rate=0.8))
        assert flat.intensity(_s(0.01)) == 1.0

    def test_kill_is_a_certain_fatal_on_one_device(self):
        phase = StormPhase.kill(device=2, at_s=0.1, duration_s=0.3)
        assert phase.plan.dma_abort_rate == 1.0
        assert phase.plan.fatal_event_rate == 1.0
        assert phase.devices == (2,)
        assert phase.active(_s(0.2), device=2)
        assert not phase.active(_s(0.2), device=0)
        assert not phase.active(_s(0.45), device=2)

    def test_invalid_windows_rejected(self):
        with pytest.raises(ReproRuntimeError, match="start"):
            StormPhase(-0.1, 0.2, FaultPlan())
        with pytest.raises(ReproRuntimeError, match="empty"):
            StormPhase(0.2, 0.2, FaultPlan())
        with pytest.raises(ReproRuntimeError, match="empty"):
            StormPhase(0.3, 0.2, FaultPlan())

    def test_zero_duration_kill_rejected(self):
        with pytest.raises(ReproRuntimeError, match="empty"):
            StormPhase.kill(device=0, at_s=0.1, duration_s=0.0)

    @pytest.mark.parametrize("devices", [(), (-1,), (0, -2)])
    def test_storm_aimed_at_no_replica_rejected(self, devices):
        with pytest.raises(ReproRuntimeError, match="devices"):
            StormPhase(0.0, 1.0, FaultPlan(), devices=devices)


class TestFaultSchedule:
    def test_empty_schedule_returns_base(self):
        schedule = FaultSchedule()
        assert schedule.plan_at(_s(0.5), 0) == FaultPlan()
        assert schedule.plan_at(_s(0.5), 0).odds() == (0.0, 0.0, 0.0)

    def test_base_plan_applies_outside_storms(self):
        base = FaultPlan(dma_corrupt_rate=0.01)
        schedule = FaultSchedule(
            base=base,
            phases=(StormPhase(0.5, 0.6, FaultPlan(ecc_ce_rate=0.5)),),
        )
        assert schedule.plan_at(_s(0.1), 0) == base
        assert schedule.plan_at(_s(0.7), 0) == base

    def test_storm_rates_compose_as_survival_products(self):
        schedule = FaultSchedule(
            base=FaultPlan(dma_corrupt_rate=0.1),
            phases=(
                StormPhase(0.0, 1.0, FaultPlan(dma_corrupt_rate=0.2)),
                StormPhase(0.0, 1.0, FaultPlan(dma_corrupt_rate=0.5)),
            ),
        )
        plan = schedule.plan_at(_s(0.5), 0)
        assert plan.dma_corrupt_rate == pytest.approx(
            1.0 - 0.9 * 0.8 * 0.5
        )

    def test_stacked_certain_kills_never_exceed_one(self):
        schedule = FaultSchedule(
            phases=(
                StormPhase.kill(0, 0.0, 1.0),
                StormPhase.kill(0, 0.0, 1.0),
            )
        )
        plan = schedule.plan_at(_s(0.5), 0)
        assert plan.dma_abort_rate == 1.0  # a valid FaultPlan, not 2.0

    def test_seed_and_cores_come_from_the_base_plan(self):
        base = FaultPlan(seed=7, sdc_cores=(2,))
        schedule = FaultSchedule(
            base=base,
            phases=(
                StormPhase(
                    0.0, 1.0, FaultPlan(seed=9, ecc_ce_rate=0.5, sdc_cores=(1,))
                ),
            ),
        )
        plan = schedule.plan_at(_s(0.5), 0)
        assert (plan.seed, plan.sdc_cores) == (7, (2,))
        assert plan.ecc_ce_rate == 0.5

    def test_ramped_storm_scales_the_rate(self):
        schedule = FaultSchedule(
            phases=(
                StormPhase(
                    0.0, 1.0, FaultPlan(dma_corrupt_rate=0.8), ramp=True
                ),
            )
        )
        assert schedule.plan_at(_s(0.0), 0).dma_corrupt_rate == 0.0
        assert schedule.plan_at(
            _s(0.5), 0
        ).dma_corrupt_rate == pytest.approx(0.4)

    def test_one_plan_per_composed_rates(self):
        storm = StormPhase(0.0, 1.0, FaultPlan(dma_corrupt_rate=0.5))
        ramp = StormPhase(2.0, 3.0, FaultPlan(ecc_ce_rate=0.8), ramp=True)
        schedule = FaultSchedule(
            base=FaultPlan(seed=4, ecc_ue_rate=0.01), phases=(storm, ramp)
        )
        inside = schedule.plan_at(_s(0.1), 0)
        odds = inside.odds(2)
        # the same storm at another time or device composes the same rates:
        # the same plan comes back, with its odds already resolved
        assert schedule.plan_at(_s(0.9), 3) is inside
        assert schedule.plan_at(_s(0.9), 3).odds(2) is odds
        # a ramp composes new rates as it grows, each its own plan
        early, late = schedule.plan_at(_s(2.25), 0), schedule.plan_at(_s(2.75), 0)
        assert early is not late
        assert early.ecc_ce_rate < late.ecc_ce_rate
        assert schedule.plan_at(_s(2.25), 1) is early
        assert inside.seed == early.seed == 4
        # outside every storm the base plan itself comes back
        assert schedule.plan_at(_s(1.5), 0) is schedule.base

    def test_per_device_storms_leave_others_clean(self):
        schedule = FaultSchedule(
            phases=(StormPhase.kill(device=1, at_s=0.0, duration_s=1.0),)
        )
        # (p_fatal, p_transient, p_silent): a certain fatal on r1 only
        assert schedule.plan_at(_s(0.5), 1).odds() == (1.0, 0.0, 0.0)
        assert schedule.plan_at(_s(0.5), 0).odds() == (0.0, 0.0, 0.0)


class TestSilentRateComposition:
    """plan_at's silent rate: the SDC defense's exposure oracle."""

    def test_silent_free_schedules_report_zero(self):
        assert _silent(FaultSchedule(), 0.5) == 0.0
        noisy = FaultSchedule(
            phases=(StormPhase(0.0, 1.0, FaultPlan(dma_corrupt_rate=0.5)),)
        )
        # loud faults are not silent faults
        assert _silent(noisy, 0.5) == 0.0
        assert noisy.plan_at(_s(0.5), 0).odds()[2] == 0.0

    def test_silent_rates_compose_as_survival_products(self):
        schedule = FaultSchedule(
            base=FaultPlan(sdc_gemm_rate=0.1),
            phases=(
                StormPhase(0.0, 1.0, FaultPlan(sdc_dma_rate=0.2)),
                StormPhase(0.0, 1.0, FaultPlan(sdc_sparse_rate=0.5)),
            ),
        )
        assert _silent(schedule, 0.5) == pytest.approx(1.0 - 0.9 * 0.8 * 0.5)

    def test_overlapping_windows_compose_only_in_the_overlap(self):
        schedule = FaultSchedule(
            phases=(
                StormPhase(0.1, 0.3, FaultPlan(sdc_gemm_rate=0.2)),
                StormPhase(0.2, 0.4, FaultPlan(sdc_gemm_rate=0.5)),
            ),
        )
        assert _silent(schedule, 0.15) == pytest.approx(0.2)
        assert _silent(schedule, 0.25) == pytest.approx(1.0 - 0.8 * 0.5)
        assert _silent(schedule, 0.35) == pytest.approx(0.5)

    def test_rate_composition_at_half_open_window_boundaries(self):
        # Windows are [start, end): exactly at the second phase's start
        # both storms compose; exactly at the first phase's end only the
        # second survives; exactly at the last end everything is quiet.
        schedule = FaultSchedule(
            phases=(
                StormPhase(0.1, 0.3, FaultPlan(sdc_gemm_rate=0.2)),
                StormPhase(0.2, 0.4, FaultPlan(sdc_gemm_rate=0.5)),
            ),
        )
        assert _silent(schedule, 0.1) == pytest.approx(0.2)
        assert _silent(schedule, 0.2) == pytest.approx(1.0 - 0.8 * 0.5)
        assert _silent(schedule, 0.3) == pytest.approx(0.5)
        assert _silent(schedule, 0.4) == 0.0

    def test_device_targeted_silent_storm_spares_the_rest(self):
        schedule = FaultSchedule(
            phases=(
                StormPhase(
                    0.0, 1.0, FaultPlan(sdc_gemm_rate=0.5), devices=(1,)
                ),
            ),
        )
        assert _silent(schedule, 0.5, device=1) == pytest.approx(0.5)
        assert _silent(schedule, 0.5) == 0.0

    def test_ramped_silent_storm_scales_the_rate(self):
        schedule = FaultSchedule(
            phases=(
                StormPhase(
                    0.0, 1.0, FaultPlan(sdc_gemm_rate=0.8), ramp=True
                ),
            )
        )
        assert _silent(schedule, 0.0) == 0.0
        assert _silent(schedule, 0.5) == pytest.approx(0.4)
