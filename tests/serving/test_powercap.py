"""Fleet power governor tests: config, apportionment, storms, composition.

The governor (docs/power.md) owns a rack power budget, re-apportions it
into per-device caps every window, and degrades devices gracefully via
the modelled DVFS + stall loop. These tests pin the apportionment
policies, the parking order, the storm schedule shapes, byte-identical
replay, and the detached no-op guarantee (no ``power`` report key, no
behavioral change) the acceptance bar demands.
"""

import json
from dataclasses import dataclass, fields

import pytest

from repro.core.config import dtu1_config, dtu2_config
from repro.core.errors import ReproRuntimeError
from repro.serving.fleet import FleetConfig, FleetManager, ReplicaStatus
from repro.serving.powercap import (
    BROWNOUT_THROTTLE,
    BROWNOUT_WINDOWS,
    ROUTE_AVOID_THROTTLE,
    FleetPowerGovernor,
    PowerCapConfig,
    PowerCapPhase,
)
from repro.serving.routing import ReferenceRouter
from repro.serving.server import TenantConfig
from repro.serving.workload import TrafficPattern, generate_trace


@dataclass
class _FakeReplica:
    index: int
    name: str
    status: ReplicaStatus = ReplicaStatus.ACTIVE
    free_at: float = 0.0


def _governor(n=3, statuses=None, chip=None, **overrides):
    config = PowerCapConfig(**{"fleet_budget_watts": 450.0, **overrides})
    governor = FleetPowerGovernor(config, chip or dtu2_config())
    statuses = statuses or [ReplicaStatus.ACTIVE] * n
    replicas = [
        _FakeReplica(index=i, name=f"r{i}", status=status)
        for i, status in enumerate(statuses)
    ]
    governor.reset(replicas)
    return governor, replicas


def _caps(governor):
    return [state.cap_watts for state in governor._devices]


class TestPowerCapConfig:
    def test_holds_only_the_knobs_a_caller_sets(self):
        # The envelope and peak draw are the chip's; the rest of the
        # governor's tuning is module constants.
        assert [f.name for f in fields(PowerCapConfig)] == [
            "fleet_budget_watts", "phases",
        ]

    def test_rejects_bad_values(self):
        with pytest.raises(ReproRuntimeError):
            PowerCapConfig(fleet_budget_watts=0.0)

    def test_phase_validation(self):
        with pytest.raises(ReproRuntimeError):
            PowerCapPhase(0.2, 0.1, 300.0)
        with pytest.raises(ReproRuntimeError):
            PowerCapPhase(0.1, 0.2, -5.0)
        with pytest.raises(ReproRuntimeError):
            PowerCapPhase(0.1, 0.2, 300.0, shape="sawtooth")

    def test_step_phase_holds_budget(self):
        phase = PowerCapPhase(0.1, 0.2, 300.0, shape="step")
        assert phase.budget_at(0.15, base_watts=450.0) == 300.0

    def test_ramp_phase_interpolates_from_base(self):
        phase = PowerCapPhase(0.0, 0.1, 300.0, shape="ramp")
        assert phase.budget_at(0.0, base_watts=450.0) == pytest.approx(450.0)
        assert phase.budget_at(0.05, base_watts=450.0) == pytest.approx(375.0)
        assert phase.budget_at(0.1, base_watts=450.0) == pytest.approx(300.0)

    def test_oscillate_phase_square_waves(self):
        phase = PowerCapPhase(
            0.0, 0.4, 300.0, shape="oscillate", period_s=0.2
        )
        assert phase.budget_at(0.05, base_watts=450.0) == 300.0
        assert phase.budget_at(0.15, base_watts=450.0) == 450.0
        assert phase.budget_at(0.25, base_watts=450.0) == 300.0

    def test_budget_at_latest_active_phase_wins(self):
        config = PowerCapConfig(
            fleet_budget_watts=450.0,
            phases=(
                PowerCapPhase(0.0, 0.5, 400.0),
                PowerCapPhase(0.2, 0.3, 300.0),
            ),
        )
        assert config.budget_at(0.1e9) == 400.0
        assert config.budget_at(0.25e9) == 300.0
        assert config.budget_at(0.6e9) == 450.0

    def test_scaled_tightens_base_and_phases(self):
        config = PowerCapConfig(
            fleet_budget_watts=400.0,
            phases=(PowerCapPhase(0.1, 0.2, 300.0),),
        )
        tight = config.scaled(0.5)
        assert tight.fleet_budget_watts == 200.0
        assert tight.phases[0].budget_watts == 150.0


class TestApportionment:
    @pytest.mark.parametrize(
        "chip", [dtu2_config(), dtu1_config()], ids=["i20", "i10"]
    )
    def test_envelope_and_peak_come_from_the_chip(self, chip):
        governor, _ = _governor(n=2, chip=chip, fleet_budget_watts=450.0)
        assert governor._envelope[0] == chip.max_clock_ghz
        assert min(governor._envelope) >= chip.base_clock_ghz
        assert _caps(governor) == [chip.tdp_watts] * 2

    def test_generous_budget_lifts_every_device_to_peak(self):
        """Top-up pass: budget >= n*peak must leave zero throttle."""
        governor, _ = _governor(n=3, fleet_budget_watts=450.0)
        assert _caps(governor) == [150.0, 150.0, 150.0]
        assert all(s.dilation == 1.0 for s in governor._devices)

    def test_caps_never_exceed_budget(self):
        governor, replicas = _governor(n=3, fleet_budget_watts=320.0)
        statuses = [r.status for r in replicas]
        for window in range(1, 6):
            governor.note_busy(0, 0.0, 1e12)  # device 0 saturated
            governor.close_window(window * governor.window_ns, statuses)
            assert sum(_caps(governor)) <= 320.0 + 1e-9

    def test_proportional_rewards_demand(self):
        governor, replicas = _governor(n=2, fleet_budget_watts=220.0)
        statuses = [r.status for r in replicas]
        # Device 0 fully busy for a window, device 1 idle.
        governor.note_busy(0, 0.0, governor.window_ns)
        governor.close_window(governor.window_ns, statuses)
        caps = _caps(governor)
        assert caps[0] > caps[1]

    def test_idle_round_splits_surplus_equally(self):
        """No device shows demand: the weights fall back to all ones, so
        the surplus over the idle floors is split equally."""
        governor, replicas = _governor(n=3, fleet_budget_watts=240.0)
        governor.close_window(
            governor.window_ns, [r.status for r in replicas]
        )
        caps = _caps(governor)
        assert caps[0] == caps[1] == caps[2]
        assert sum(caps) == pytest.approx(240.0)
        assert caps[0] < 150.0  # the top-up pass has nothing to lift

    def test_parks_standby_before_active(self):
        governor, _ = _governor(
            n=3,
            statuses=[
                ReplicaStatus.ACTIVE, ReplicaStatus.ACTIVE,
                ReplicaStatus.STANDBY,
            ],
            fleet_budget_watts=100.0,  # floors need 135: someone parks
        )
        states = governor._devices
        assert states[2].parked  # the standby goes first
        assert not states[0].parked and not states[1].parked

    def test_parks_high_index_active_last_resort(self):
        governor, _ = _governor(n=3, fleet_budget_watts=100.0)
        states = governor._devices
        assert states[2].parked
        assert not states[0].parked and not states[1].parked
        assert governor.parked_indices() == frozenset({2})

    def test_retired_devices_draw_nothing(self):
        governor, replicas = _governor(
            n=2,
            statuses=[ReplicaStatus.ACTIVE, ReplicaStatus.RETIRED],
            fleet_budget_watts=450.0,
        )
        statuses = [r.status for r in replicas]
        governor.close_window(governor.window_ns, statuses)
        assert governor._devices[1].parked
        assert governor._devices[1].energy_joules == 0.0

    def test_tight_cap_induces_dilation(self):
        governor, replicas = _governor(n=2, fleet_budget_watts=160.0)
        statuses = [r.status for r in replicas]
        governor.close_window(governor.window_ns, statuses)
        dilations = governor.dilations()
        assert all(value > 1.0 for value in dilations.values())

    @pytest.mark.parametrize("budget, avoided", [(270.0, False), (120.0, True)])
    def test_avoid_indices_follow_throttle_threshold(self, budget, avoided):
        # A mild cap throttles both devices a little, below the routing
        # threshold; a deep one throttles them past it.
        governor, replicas = _governor(n=2, fleet_budget_watts=budget)
        statuses = [r.status for r in replicas]
        governor.close_window(governor.window_ns, statuses)
        throttles = [state.throttle for state in governor._devices]
        assert all(throttle > 0.0 for throttle in throttles)
        assert all(
            (throttle > ROUTE_AVOID_THROTTLE) == avoided
            for throttle in throttles
        )
        assert governor.avoid_indices() == (
            frozenset({0, 1}) if avoided else frozenset()
        )

    def test_power_pressure_needs_sustained_throttle(self):
        governor, replicas = _governor(n=2, fleet_budget_watts=120.0)
        statuses = [r.status for r in replicas]
        for window in range(1, BROWNOUT_WINDOWS):
            governor.close_window(window * governor.window_ns, statuses)
            assert governor.throttle_ratio >= BROWNOUT_THROTTLE
            assert governor.power_pressure() == 0.0  # streak too short
        governor.close_window(BROWNOUT_WINDOWS * governor.window_ns, statuses)
        assert governor.power_pressure() == min(
            1.0, governor.throttle_ratio / BROWNOUT_THROTTLE
        )
        assert governor.power_pressure() > 0.0

    def test_can_power_promotion_checks_headroom(self):
        generous, _ = _governor(n=3, fleet_budget_watts=450.0)
        assert generous.can_power_promotion(active_count=2)
        tight, _ = _governor(n=3, fleet_budget_watts=140.0)
        assert not tight.can_power_promotion(active_count=2)


class TestPowerPreferences:
    """The governor's two sets as FleetRouter.route reads them."""

    def _router(self, n):
        router = ReferenceRouter()
        router.rebuild([_FakeReplica(index=i, name=f"r{i}") for i in range(n)])
        return router

    def test_soft_avoid_prefers_unthrottled(self):
        router = self._router(3)
        router.avoid = frozenset({0})
        assert router.route(0.0).index == 1

    def test_soft_avoid_falls_back_when_all_avoided(self):
        router = self._router(2)
        router.avoid = frozenset({0, 1})
        assert router.route(0.0) is not None

    def test_parked_is_a_hard_exclusion(self):
        router = self._router(2)
        router.parked = frozenset({0, 1})
        assert router.route(0.0) is None


TENANTS = [TenantConfig("t", "resnet50", groups=2, max_batch=1)]
SERVICE_TIMES = {"t": 1.0e6}


def _trace(rate=800.0):
    return generate_trace(
        [TrafficPattern("t", rate)], duration_s=0.2, seed=11
    )


def _manager(powercap=None, seed=3):
    return FleetManager(
        TENANTS,
        config=FleetConfig(replicas=2, hot_spares=0, seed=seed),
        service_times_ns=dict(SERVICE_TIMES),
        powercap=powercap,
    )


def _run_fleet(powercap=None, rate=800.0, seed=3):
    return _manager(powercap, seed).run(_trace(rate))


class TestFleetIntegration:
    def test_run_clears_stale_power_sets(self):
        # A run starts from empty preference sets, whatever an earlier
        # run (or a caller) left on the router.
        manager = _manager()
        clean = manager.run(_trace()).to_dict()
        manager._router.parked = frozenset({0, 1})
        manager._router.avoid = frozenset({0})
        assert manager.run(_trace()).to_dict() == clean

    def test_fully_parked_fleet_sheds_for_no_capacity(self):
        # A budget below one idle floor parks every device: they stay
        # ACTIVE in the pool, but nothing can serve, so every arrival
        # sheds as no-capacity rather than failing on dispatch.
        report = _run_fleet(powercap=PowerCapConfig(fleet_budget_watts=40.0))
        stats = report.tenants["t"]
        assert report.final_healthy == 2
        assert stats.offered > 0
        assert stats.shed_no_capacity == stats.offered
        assert stats.failed == 0

    def test_detached_report_has_no_power_key(self):
        report = _run_fleet()
        assert report.power is None
        assert "power" not in report.to_dict()

    def test_governed_rerun_is_byte_identical(self):
        config = PowerCapConfig(fleet_budget_watts=240.0)
        first = _run_fleet(powercap=config)
        second = _run_fleet(powercap=config)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_uncapped_budget_matches_detached_service(self):
        """A budget the caps never touch must not change what's served."""
        detached = _run_fleet()
        governed = _run_fleet(
            powercap=PowerCapConfig(fleet_budget_watts=300.0)
        )
        base = detached.tenants["t"]
        capped = governed.tenants["t"]
        assert capped.served == base.served
        assert capped.p99_ms == base.p99_ms
        assert governed.power["mean_throttle_ratio"] == 0.0

    def test_tight_budget_dilates_but_conserves(self):
        loose = _run_fleet(powercap=PowerCapConfig(fleet_budget_watts=300.0))
        tight = _run_fleet(powercap=PowerCapConfig(fleet_budget_watts=240.0))
        assert tight.tenants["t"].served == loose.tenants["t"].served
        assert tight.tenants["t"].p99_ms > loose.tenants["t"].p99_ms
        assert tight.power["mean_throttle_ratio"] > 0.0
        assert (
            tight.power["energy_per_inference_mj"]
            < loose.power["energy_per_inference_mj"]
        )

    def test_storm_schedule_reflected_in_window_rows(self):
        config = PowerCapConfig(
            fleet_budget_watts=300.0,
            phases=(PowerCapPhase(0.05, 0.15, 240.0, shape="step"),),
        )
        report = _run_fleet(powercap=config)
        rows = report.power["window_rows"]
        budgets = {row["budget_watts"] for row in rows}
        assert budgets == {300.0, 240.0}
        assert report.power["min_budget_watts"] == 240.0
        for row in rows:
            assert row["cap_watts"] <= row["budget_watts"] + 1e-9
            assert row["draw_watts"] <= row["cap_in_force_watts"] + 1e-9

    def test_i10_fleet_governs_inside_the_i10_envelope(self):
        # The DVFS envelope, the peak draw and the dilation's reference
        # clock all come from the fleet's chip: an i10 tops out at
        # 1.25 GHz, not at the i20's 1.4.
        chip = dtu1_config()
        manager = FleetManager(
            TENANTS,
            config=FleetConfig(
                replicas=2, hot_spares=0, seed=3, device="i10",
                validate_on_open=False,
            ),
            service_times_ns=dict(SERVICE_TIMES),
            powercap=PowerCapConfig(fleet_budget_watts=240.0),
        )
        governor = manager._governor
        assert governor._envelope[0] == chip.max_clock_ghz == 1.25
        assert min(governor._envelope) >= chip.base_clock_ghz
        report = manager.run(_trace())
        assert report.power["mean_throttle_ratio"] > 0.0
        for state in governor._devices:
            f_ghz = state.dvfs.f_ghz
            assert chip.base_clock_ghz <= f_ghz <= 1.25
            assert state.dilation == (1.25 / f_ghz) / (1.0 - state.stall)
            assert state.cap_watts <= chip.tdp_watts

    def test_power_gauges_exported(self):
        from repro.obs import Observability

        obs = Observability()
        trace = generate_trace(
            [TrafficPattern("t", 400.0)], duration_s=0.1, seed=11
        )
        manager = FleetManager(
            TENANTS,
            config=FleetConfig(replicas=2, hot_spares=0, seed=3),
            service_times_ns=dict(SERVICE_TIMES),
            obs=obs,
            powercap=PowerCapConfig(fleet_budget_watts=240.0),
        )
        report = manager.run(trace)
        registry = obs.metrics
        assert registry.get("fleet_power_cap_watts").value() == 240.0
        assert (
            registry.get("energy_per_inference_mj").value()
            == report.power["energy_per_inference_mj"]
        )
        device_cap = registry.get("device_power_cap_watts")
        for name, entry in report.power["devices"].items():
            assert device_cap.value(device=name) == entry["final_cap_watts"]
