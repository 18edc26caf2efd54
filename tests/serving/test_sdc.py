"""Fleet SDC defense: config, conserved ledger, routing, containment.

Exercises :mod:`repro.serving.sdc` directly and through
:class:`~repro.serving.fleet.FleetManager`: the detached path stays
byte-identical, the defended fleet serves zero corrupted results where
the undefended control serves them all, and every injected event lands
in exactly one ledger bucket.
"""

import json

import pytest

from repro.core.errors import ReproRuntimeError
from repro.faults import FaultPlan, FaultSchedule, StormPhase
from repro.obs import Observability
from repro.serving import (
    FleetConfig,
    FleetManager,
    RasConfig,
    TenantConfig,
    TrafficPattern,
    generate_trace,
)
from repro.serving.routing import FleetRouter
from repro.serving.sdc import SdcConfig, SdcTracker

SILENT_STORM = FaultSchedule(
    phases=(
        StormPhase(
            0.05, 0.4, FaultPlan(sdc_gemm_rate=0.008, sdc_dma_rate=0.004)
        ),
    )
)
DEFENDED = SdcConfig(
    abft="strict",
    screen_interval_ms=40.0,
    screen_vectors=2,
    audit_fraction=0.2,
    quarantine_threshold=2,
    retire_after=8,
)


def _fleet(sdc=None, schedule=None, config=None, obs=None):
    return FleetManager(
        [TenantConfig("a", "resnet50", groups=2, max_batch=1, sla_ms=50.0)],
        config=config
        or FleetConfig(replicas=2, hot_spares=1, validate_on_open=False),
        schedule=schedule,
        ras=RasConfig(max_retries=2, queue_depth_limit=64),
        obs=obs,
        service_times_ns={"a": 1.0e6},
        sdc=sdc,
    )


def _trace(seed=0, rate=300.0, duration=0.5):
    return generate_trace(
        [TrafficPattern("a", rate)], duration_s=duration, seed=seed
    )


def _dump(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestSdcConfigValidation:
    def test_defaults_are_fully_detached(self):
        config = SdcConfig()
        assert not config.checking
        assert config.screen_interval_ms is None
        assert config.audit_fraction == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abft": "fuzzy"},
            {"probe_coverage": 1.5},
            {"probe_coverage": -0.1},
            {"screen_interval_ms": 0.0},
            {"screen_interval_ms": -1.0},
            {"screen_vectors": 0},
            {"screen_cost_ms": -1.0},
            {"audit_fraction": 1.5},
            {"quarantine_threshold": 0},
            {"retire_after": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ReproRuntimeError, match="SdcConfig"):
            SdcConfig(**kwargs)


class TestSdcTrackerLedger:
    @staticmethod
    def _tracker(config=None, schedule=None):
        return SdcTracker(
            config or DEFENDED,
            seed=0,
            schedule=schedule or SILENT_STORM,
            replica_names=["r0", "r1"],
        )

    def test_quiet_schedule_draws_nothing(self):
        quiet = FaultSchedule()
        tracker = self._tracker(schedule=quiet)
        p_silent = quiet.plan_at(0.2e9, 0).odds()[2]
        assert p_silent == 0.0
        for _ in range(50):
            assert not tracker.attempt_corrupted("r0", p_silent)
        assert tracker.injected == 0

    def test_every_event_lands_in_exactly_one_bucket(self):
        tracker = self._tracker()
        inside = 0.2e9  # mid-storm
        p_silent = SILENT_STORM.plan_at(inside, 0).odds()[2]
        for attempt in range(200):
            if not tracker.attempt_corrupted("r0", p_silent):
                continue
            if tracker.abft_detects("r0"):
                tracker.note_detection(0, "abft", latency_ms=0.5)
            else:
                tracker.note_served(0, inside)
        assert tracker.injected > 0
        section = tracker.build_section()
        assert section["detected_total"] == sum(
            section["detected"].values()
        )
        assert (
            section["detected_total"] + section["served_corrupted"]
            == section["injected"]
        )

    def test_strict_abft_consumes_no_randomness(self):
        tracker = self._tracker()
        for _ in range(10):
            assert tracker.abft_detects("r0")  # strict always catches
        # The replica's sdc stream is untouched by strict checking: the
        # next corruption draw matches a fresh tracker's first draw.
        fresh = self._tracker()
        p_silent = SILENT_STORM.plan_at(0.2e9, 0).odds()[2]
        assert tracker.attempt_corrupted(
            "r0", p_silent
        ) == fresh.attempt_corrupted("r0", p_silent)

    def test_detections_escalate_to_quarantine_then_retire(self):
        tracker = self._tracker(
            config=SdcConfig(quarantine_threshold=2, retire_after=3)
        )
        tracker.note_detection(1, "abft")
        assert tracker.take_actions() == []
        tracker.note_detection(1, "abft")
        assert tracker.take_actions() == [(1, "quarantine")]
        tracker.note_detection(1, "abft")
        assert tracker.take_actions() == [(1, "retire")]
        assert tracker.suspected_frozen() == frozenset({1})

    def test_clean_screen_clears_suspicion(self):
        tracker = self._tracker()
        tracker.note_detection(0, "abft")
        assert 0 in tracker.suspected_frozen()
        # outside the storm window the screen finds nothing and clears
        corrupted = tracker.screen_replica("r0", 0, now_ns=0.45e9)
        assert corrupted == 0
        assert tracker.suspected_frozen() == frozenset()

    def test_dirty_screen_resolves_served_events_without_revising(self):
        tracker = self._tracker(
            config=SdcConfig(screen_interval_ms=10.0, screen_vectors=8)
        )
        tracker.note_served(0, 0.1e9)
        served_before = tracker.served_corrupted
        # deep in the storm with 8 vectors, a detection is near-certain
        corrupted = 0
        now = 0.2e9
        while corrupted == 0:
            corrupted = tracker.screen_replica("r0", 0, now_ns=now)
            now += 1e6
        assert tracker.resolution_latencies_ms  # conviction recorded
        assert tracker.served_corrupted == served_before  # never revised


class _StubRouter(FleetRouter):
    """Deterministic router: lowest allowed index wins."""

    name = "stub"

    def __init__(self, indexes):
        self.indexes = list(indexes)

    def pick(self, now, excluded=frozenset()):
        for index in self.indexes:
            if index not in excluded:
                return index
        return None


class TestSuspicionPreference:
    """The tracker's suspected set as FleetRouter.route reads it."""

    def test_suspected_replicas_are_softly_avoided(self):
        router = _StubRouter([0, 1, 2])
        assert router.route(0.0) == 0
        router.suspected = frozenset({0})
        assert router.route(0.0) == 1

    def test_falls_back_when_everyone_is_suspect(self):
        router = _StubRouter([0, 1])
        router.suspected = frozenset({0, 1})
        assert router.route(0.0) == 0  # still serves

    def test_exclusions_compose_with_suspicion(self):
        router = _StubRouter([0, 1, 2])
        router.suspected = frozenset({1})
        assert router.route(0.0, excluded=frozenset({0})) == 2

    def test_run_resets_suspicion(self):
        # Suspicion left over from an earlier run must not steer the
        # next one's first dispatches.
        fleet = _fleet(sdc=DEFENDED, schedule=SILENT_STORM)
        first = fleet.run(_trace()).to_dict()
        fleet._router.suspected = frozenset({0})
        assert fleet.run(_trace()).to_dict() == first


class TestFleetIntegration:
    def test_detached_fleet_report_has_no_sdc_section(self):
        report = _fleet().run(_trace())
        assert report.sdc is None
        assert "sdc" not in report.to_dict()

    def test_inert_config_leaves_request_outcomes_untouched(self):
        # An attached-but-idle defense (no silent rates, no checking)
        # must not shift any serving stream.
        detached = _fleet().run(_trace()).to_dict()
        attached = _fleet(sdc=SdcConfig()).run(_trace()).to_dict()
        section = attached.pop("sdc")
        assert section["injected"] == 0
        assert attached == detached

    def test_defended_fleet_serves_zero_corrupted(self):
        report = _fleet(sdc=DEFENDED, schedule=SILENT_STORM).run(_trace())
        sdc = report.sdc
        assert sdc["injected"] > 0
        assert sdc["served_corrupted"] == 0
        assert sdc["detected_total"] == sdc["injected"]

    def test_undefended_control_serves_every_corruption(self):
        report = _fleet(sdc=SdcConfig(), schedule=SILENT_STORM).run(_trace())
        sdc = report.sdc
        assert sdc["injected"] > 0
        assert sdc["served_corrupted"] == sdc["injected"]
        assert sdc["detected_total"] == 0

    def test_probe_mode_with_full_coverage_matches_strict_pledge(self):
        config = SdcConfig(abft="probe", probe_coverage=1.0)
        report = _fleet(sdc=config, schedule=SILENT_STORM).run(_trace())
        assert report.sdc["injected"] > 0
        assert report.sdc["served_corrupted"] == 0

    def test_screens_and_audits_run_and_are_counted(self):
        report = _fleet(sdc=DEFENDED, schedule=SILENT_STORM).run(_trace())
        sdc = report.sdc
        assert sdc["screens_run"] > 0
        assert sdc["audits_run"] > 0
        assert sdc["screen_detections"] == sdc["detected"]["screen"]
        assert sdc["audit_detections"] == sdc["detected"]["audit"]

    def test_defended_run_is_byte_deterministic(self):
        first = _fleet(sdc=DEFENDED, schedule=SILENT_STORM).run(_trace())
        second = _fleet(sdc=DEFENDED, schedule=SILENT_STORM).run(_trace())
        assert _dump(first) == _dump(second)

    def test_obs_counters_match_the_report(self):
        obs = Observability()
        report = _fleet(
            sdc=DEFENDED, schedule=SILENT_STORM, obs=obs
        ).run(_trace())
        sdc = report.sdc
        metrics = obs.metrics
        assert metrics.counter(
            "sdc_injected_total", ""
        ).total() == float(sdc["injected"])
        assert metrics.counter(
            "sdc_served_total", ""
        ).total() == float(sdc["served_corrupted"])
        detected = metrics.counter("sdc_detected_total", "")
        for method, count in sdc["detected"].items():
            assert detected.value(method=method) == float(count)

    def test_repeated_detections_quarantine_the_replica(self):
        schedule = FaultSchedule(
            phases=(
                StormPhase(
                    0.05, 0.3, FaultPlan(sdc_gemm_rate=0.05), devices=(1,)
                ),
            )
        )
        report = _fleet(sdc=DEFENDED, schedule=schedule).run(_trace())
        assert report.sdc["quarantines"] >= 1
        assert "quarantined" in report.transitions("r1")
        assert "quarantined" not in report.transitions("r0")


class TestRepairProbeScreens:
    KILL = FaultSchedule(
        phases=(StormPhase.kill(device=1, at_s=0.15, duration_s=0.2),)
    )

    @staticmethod
    def _config(screen_vectors):
        return FleetConfig(
            replicas=2, hot_spares=1, quarantine_threshold=2,
            repair_ms=60.0, screen_vectors=screen_vectors,
            validate_on_open=False,
        )

    def test_default_config_is_the_legacy_single_vector_probe(self):
        # screen_vectors=1 must be byte-identical to the historical
        # default — same probe seeds, same report.
        legacy = _fleet(config=self._config(1), schedule=self.KILL)
        default_cfg = FleetConfig(
            replicas=2, hot_spares=1, quarantine_threshold=2,
            repair_ms=60.0, validate_on_open=False,
        )
        default = _fleet(config=default_cfg, schedule=self.KILL)
        assert _dump(legacy.run(_trace())) == _dump(default.run(_trace()))

    def test_multi_vector_probe_still_repairs_after_the_storm(self):
        report = _fleet(config=self._config(3), schedule=self.KILL).run(
            _trace()
        )
        transitions = report.transitions("r1")
        assert "quarantined" in transitions
        assert "repaired" in transitions
        assert any(
            "3 probe vectors clean" in event.detail
            for event in report.events
            if event.kind == "repaired"
        )

    def test_probe_corruption_screen_blocks_lying_boards(self):
        # Device 1 corrupts silently (nothing raises) for most of the
        # run: ABFT detections quarantine it, and because a probe launch
        # on a silently-lying board comes back clean, only the probe's
        # corruption screen can keep it from reintegrating mid-storm.
        schedule = FaultSchedule(
            phases=(
                StormPhase(
                    0.05, 0.45, FaultPlan(sdc_gemm_rate=0.9), devices=(1,)
                ),
            )
        )
        report = _fleet(
            config=self._config(3), schedule=schedule, sdc=DEFENDED
        ).run(_trace())
        screened = [
            event for event in report.events
            if event.kind == "repair_failed"
            and "probe screen caught silent corruption" in event.detail
        ]
        assert screened
