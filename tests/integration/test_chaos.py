"""Chaos harness acceptance: storms, invariants, and byte-exact replay.

Holds the PR's acceptance pins:

- the seeded replica-kill scenario completes with zero lost requests,
  availability above the floor, and the killed device observed going
  quarantined -> repaired -> reintegrated;
- two chaos runs from the same root seed produce byte-identical reports;
- ``repro chaos --quick`` exits 0 (the CI smoke job runs exactly this).
"""

import dataclasses
import json
import pathlib

import pytest

from repro.chaos import (
    INVARIANTS,
    SCENARIOS,
    ChaosScenario,
    declared_invariants,
    render_table,
    run_scenario,
    run_suite,
    scenario_names,
)
from repro.cli import main
from repro.serving.fleet import FleetTenantStats, LifecycleEvent
from repro.serving.powercap import PowerCapConfig


def _invariant(name):
    return dict(INVARIANTS)[name]


class TestReplicaKillAcceptance:
    """The headline scenario: a replica dies mid-run and nobody notices."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(SCENARIOS["replica-kill"], seed=0)

    def test_passes_every_invariant(self, result):
        assert result.violations == []
        assert result.passed

    def test_zero_lost_requests(self, result):
        for stats in result.report.tenants.values():
            assert stats.served == stats.offered
            assert stats.failed == 0 and stats.shed == 0

    def test_availability_meets_the_floor(self, result):
        floor = SCENARIOS["replica-kill"].availability_floor
        for stats in result.report.tenants.values():
            assert stats.availability_while_healthy >= floor

    def test_killed_device_walks_the_lifecycle(self, result):
        transitions = result.report.transitions("r1")
        assert "quarantined" in transitions
        assert "repaired" in transitions
        assert "reintegrated" in transitions
        order = [
            transitions.index("quarantined"),
            transitions.index("repaired"),
            transitions.index("reintegrated"),
        ]
        assert order == sorted(order)

    def test_failover_absorbed_the_fatal_outcomes(self, result):
        assert result.report.hedged_requests > 0
        assert result.report.failovers > 0


class TestDeterminism:
    def test_same_seed_reports_are_byte_identical(self):
        first = run_suite(quick=True, seed=7)
        second = run_suite(quick=True, seed=7)
        assert first.to_json() == second.to_json()
        assert first.to_json().encode() == second.to_json().encode()

    def test_scenario_report_json_is_byte_identical(self):
        # the acceptance pin: raw report dicts, not just summaries
        first = run_scenario(SCENARIOS["replica-kill"], seed=3)
        second = run_scenario(SCENARIOS["replica-kill"], seed=3)
        dump = lambda r: json.dumps(r.report.to_dict(), sort_keys=True)  # noqa: E731
        assert dump(first) == dump(second)

    def test_different_root_seed_changes_the_suite(self):
        assert (
            run_suite(quick=True, seed=0).to_json()
            != run_suite(quick=True, seed=1).to_json()
        )

    def test_render_table_is_deterministic(self):
        suite = run_suite(quick=True, seed=0)
        again = run_suite(quick=True, seed=0)
        assert render_table(suite) == render_table(again)


class TestSuite:
    def test_quick_suite_passes(self):
        suite = run_suite(quick=True)
        assert suite.passed
        assert [r.scenario.name for r in suite.results] == scenario_names(
            quick=True
        )

    def test_full_suite_passes(self):
        assert run_suite().passed

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown chaos scenario"):
            run_suite(names=["not-a-scenario"])

    def test_quick_subset_is_a_strict_subset(self):
        assert set(scenario_names(quick=True)) < set(scenario_names())

    def test_holds_only_the_knobs_a_caller_sets(self):
        # The autoscaler-convergence bound is MAX_SCALE_REVERSALS.
        assert [f.name for f in dataclasses.fields(ChaosScenario)] == [
            "name", "description", "schedule", "duration_s", "tenants",
            "traffic", "fleet", "ras", "availability_floor", "quick", "load",
            "admission", "autoscaler", "class_availability_floors",
            "overload_multipliers", "powercap", "cap_multipliers", "sdc",
            "max_sdc_served", "sdc_detection_latency_ms",
        ]


class TestInvariantChecks:
    """The checks must actually detect violations, not just pass."""

    @pytest.fixture()
    def result(self):
        return run_scenario(SCENARIOS["baseline"], seed=0)

    def test_conservation_catches_lost_requests(self, result):
        scenario, report = result.scenario, result.report
        report.tenants["a"].offered += 1  # one request vanished
        violations = _invariant("conservation")(scenario, report, None)
        assert violations and "tenant 'a'" in violations[0]

    def test_availability_floor_catches_unavailability(self, result):
        scenario, report = result.scenario, result.report
        stats = report.tenants["a"]
        stats.served -= 5
        stats.failed += 5
        violations = _invariant("availability-floor")(scenario, report, None)
        assert violations and "availability-floor" in violations[0]

    def test_monotone_time_catches_backwards_events(self, result):
        scenario, report = result.scenario, result.report
        report.events.append(LifecycleEvent(5e8, "r0", "quarantined"))
        report.events.append(LifecycleEvent(1e8, "r0", "repaired"))
        violations = _invariant("monotone-time")(scenario, report, None)
        assert any("precedes" in v for v in violations)

    def test_monotone_time_catches_horizon_overrun(self, result):
        scenario, report = result.scenario, result.report
        beyond = report.horizon_ns + 1e9
        report.events.append(LifecycleEvent(beyond, "r0", "retired"))
        violations = _invariant("monotone-time")(scenario, report, None)
        assert any("beyond horizon" in v for v in violations)

    @pytest.mark.parametrize(
        "scenario, needle, drift",
        [
            (
                "replica-kill", "fleet_failovers_total",
                lambda metrics: metrics.counter(
                    "fleet_failovers_total"
                ).inc(41),
            ),
            (
                "flash-crowd", "serving_shed_total",
                lambda metrics: metrics.counter("serving_shed_total").inc(
                    **metrics.get("serving_shed_total").label_sets()[0]
                ),
            ),
            (
                "power-cap-storm", "device_power_cap_watts{device=r0}",
                lambda metrics: metrics.gauge("device_power_cap_watts").add(
                    1.0, device="r0"
                ),
            ),
            (
                "silent-corruption-storm", "sdc_detected_total{method=abft}",
                lambda metrics: metrics.counter("sdc_detected_total").inc(
                    method="abft"
                ),
            ),
            (
                "replica-kill",
                "fleet_requests_total{status=served,tenant=ghost}",
                lambda metrics: metrics.counter("fleet_requests_total").inc(
                    tenant="ghost", status="served"
                ),
            ),
        ],
        ids=["failovers", "shed", "device-cap", "sdc-detected", "ghost-tenant"],
    )
    def test_obs_consistency_catches_counter_drift(
        self, scenario, needle, drift
    ):
        from repro.obs import Observability

        obs = Observability()
        result = run_scenario(SCENARIOS[scenario], seed=0, obs=obs)
        assert result.passed  # consistent as produced
        # now drift one series behind the report's back
        drift(obs.metrics)
        violations = _invariant("obs-consistency")(
            result.scenario, result.report, obs.metrics
        )
        assert any(needle in v for v in violations), violations

    def test_obs_consistency_reads_an_empty_admitted_run(self):
        # An admitted run on an empty trace registers the class families
        # with no series; the exporter and the invariant agree on that.
        from repro.obs import Observability
        from repro.serving.fleet import FleetManager

        scenario = SCENARIOS["flash-crowd"]
        obs = Observability()
        manager = FleetManager(
            list(scenario.tenants), config=scenario.fleet, obs=obs,
            service_times_ns={"a": 1.0e6, "b": 5.0e6},
            admission=scenario.admission, autoscaler=scenario.autoscaler,
        )
        report = manager.run([])
        fleet_names = {
            name for name in (m.name for m in obs.metrics.collect())
            if name.startswith(("fleet_", "serving_", "autoscaler_"))
        }
        assert fleet_names == {
            "fleet_availability", "fleet_failovers_total",
            "fleet_healthy_replicas", "fleet_hedged_requests_total",
            "fleet_min_healthy_replicas", "fleet_promotions_total",
            "fleet_quarantines_total", "fleet_reintegrations_total",
            "fleet_repair_failures_total", "fleet_repairs_total",
            "fleet_replicas", "fleet_requests_total",
            "fleet_retirements_total", "serving_backpressure_peak",
            "serving_brownout_level", "serving_class_availability",
            "serving_class_p99_ms", "serving_shed_total",
            "autoscaler_replicas", "autoscaler_scale_events_total",
        }
        assert obs.metrics.get("serving_class_p99_ms").samples() == []
        assert _invariant("obs-consistency")(
            scenario, report, obs.metrics
        ) == []

    def test_failed_suite_reports_violations_and_fails(self):
        # an impossible floor makes the baseline scenario fail cleanly
        strict = dataclasses.replace(
            SCENARIOS["transient-storm"], availability_floor=1.01
        )
        result = run_scenario(strict, seed=0)
        assert not result.passed
        assert any("availability-floor" in v for v in result.violations)


class TestChaosCli:
    def test_quick_cli_run_exits_zero(self, capsys):
        assert main(["chaos", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "replica-kill" in out
        assert "PASS" in out and "FAIL" not in out

    def test_single_scenario_json(self, capsys):
        assert main(["chaos", "--scenario", "replica-kill", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["results"][0]["scenario"] == "replica-kill"

    def test_list_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["chaos", "--scenario", "nope"]) == 2

    def test_routing_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--routing", "heap"])
        assert exit_info.value.code == 2
        assert "--routing" in capsys.readouterr().err

    def test_profile_fleet_tables_gate_on_both_scenarios(self, capsys):
        from repro.cli import _profile_fleet
        from repro.obs import Observability

        assert _profile_fleet(Observability()) == 0
        out = capsys.readouterr().out
        for row in (
            "fleet_repair_failures_total", "fleet_retirements_total",
            "fleet_availability{a}", "fleet_power_cap_watts",
        ):
            assert row in out
        assert "obs-consistency" not in out
        # a hub that already holds fleet series fails replica-kill
        stale = Observability()
        stale.metrics.counter("fleet_failovers_total").inc(3)
        assert _profile_fleet(stale) == 1
        assert "replica-kill: obs-consistency: fleet_failovers_total" in (
            capsys.readouterr().out
        )

    def test_profile_fleet_prints_fleet_gauges(self, capsys):
        assert main(["profile", "resnet50", "--fleet"]) == 0
        out = capsys.readouterr().out
        assert "fleet_healthy_replicas" in out
        assert "fleet_quarantines_total" in out
        assert "fleet_availability{a}" in out


class TestSilentCorruptionAcceptance:
    """The SDC headline: a corruption storm serves zero wrong answers."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(SCENARIOS["silent-corruption-storm"], seed=0)

    def test_passes_every_invariant(self, result):
        assert result.violations == []
        assert result.passed

    def test_defended_fleet_serves_zero_corrupted(self, result):
        sdc = result.report.sdc
        assert sdc["injected"] > 0
        assert sdc["served_corrupted"] == 0

    def test_ledger_is_conserved(self, result):
        sdc = result.report.sdc
        assert sdc["detected_total"] == sum(sdc["detected"].values())
        assert (
            sdc["detected_total"] + sdc["served_corrupted"]
            == sdc["injected"]
        )

    def test_detection_latency_is_bounded(self, result):
        budget = SCENARIOS["silent-corruption-storm"].sdc_detection_latency_ms
        assert result.report.sdc["max_detection_latency_ms"] <= budget

    def test_undefended_control_is_actually_exposed(self, result):
        # the zero above is only meaningful if the same storm corrupts
        # served results once the defenses are off
        control = result.sdc_control
        assert control is not None
        assert control["served_corrupted"] >= 1
        assert control["detected_total"] == 0

    def test_sdc_control_is_serialized(self, result):
        data = result.to_dict()
        assert data["sdc_control"]["served_corrupted"] >= 1
        # non-sdc scenarios must not grow the key
        baseline = run_scenario(SCENARIOS["baseline"], seed=0)
        assert "sdc_control" not in baseline.to_dict()


class TestDefectiveCoreOutbreak:
    """Device-targeted outbreak: containment isolates the bad board."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(SCENARIOS["defective-core-outbreak"], seed=0)

    def test_passes_every_invariant(self, result):
        assert result.violations == []
        assert result.passed

    def test_containment_convicted_the_defective_board(self, result):
        sdc = result.report.sdc
        assert sdc["quarantines"] + sdc["retirements"] >= 1
        served = SCENARIOS["defective-core-outbreak"].max_sdc_served
        assert sdc["served_corrupted"] <= served


class TestDetachedGolden:
    def test_original_scenarios_match_the_pre_sdc_golden(self, capsys):
        # The pinned pre-SDC report: running the original quick scenarios
        # with the detection layer in-tree but detached must reproduce it
        # byte-for-byte (the `smoke (sdc)` CI matrix entry cmp's the same
        # pair).
        golden = (
            pathlib.Path(__file__).parent / "data" / "chaos_quick_golden.json"
        ).read_text()
        argv = ["chaos", "--json", "--workers", "1"]
        for name in (
            "baseline", "transient-storm", "replica-kill", "flash-crowd",
            "power-cap-storm",
        ):
            argv += ["--scenario", name]
        assert main(argv) == 0
        assert capsys.readouterr().out == golden


class TestDeclaredInvariants:
    def test_every_scenario_declares_the_core_set(self):
        # Catalogue invariants plus the sweep checks run_scenario applies
        # outside the catalogue (reruns at swept multipliers / defenses
        # off, so they cannot be a pure report predicate).
        known = {name for name, _ in INVARIANTS} | {
            "shed-monotonicity", "cap-monotonicity", "undefended-exposure",
        }
        for scenario in SCENARIOS.values():
            names = declared_invariants(scenario)
            assert "conservation" in names
            assert "monotone-time" in names
            assert set(names) <= known

    def test_sdc_scenarios_declare_correctness(self):
        storm = declared_invariants(SCENARIOS["silent-corruption-storm"])
        assert "end-to-end-correctness" in storm
        assert "undefended-exposure" in storm
        baseline = declared_invariants(SCENARIOS["baseline"])
        assert "end-to-end-correctness" not in baseline

    def test_list_cli_prints_per_scenario_invariants(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "invariants:" in out
        assert "end-to-end-correctness" in out


class TestEndToEndCorrectnessCheck:
    """The new invariant must detect violations, not just pass."""

    def test_sdc_section_on_a_detached_scenario_is_a_violation(self):
        result = run_scenario(SCENARIOS["baseline"], seed=0)
        result.report.sdc = {"injected": 0}
        violations = _invariant("end-to-end-correctness")(
            result.scenario, result.report, None
        )
        assert any("detached" in v for v in violations)

    def test_corrupted_serve_above_budget_is_caught(self):
        result = run_scenario(SCENARIOS["silent-corruption-storm"], seed=0)
        report = result.report
        report.sdc["served_corrupted"] += 1
        violations = _invariant("end-to-end-correctness")(
            result.scenario, report, None
        )
        assert violations

    def test_leaked_ledger_event_is_caught(self):
        result = run_scenario(SCENARIOS["silent-corruption-storm"], seed=0)
        report = result.report
        report.sdc["injected"] += 1  # one event in no bucket
        violations = _invariant("end-to-end-correctness")(
            result.scenario, report, None
        )
        assert violations


class TestRerunsKeepTheScenarioFleet:
    """A sweep re-run differs from the main run only in what it varies.

    At 1.0x a sweep row re-runs the main run, so it must report the
    main run's numbers: a re-run that dropped the scenario's power cap
    or SDC defense would not.
    """

    def test_overload_sweep_keeps_the_power_cap(self):
        scenario = dataclasses.replace(
            SCENARIOS["overload-storm"],
            powercap=PowerCapConfig(fleet_budget_watts=400.0),
            overload_multipliers=(1.0,),
        )
        result = run_scenario(scenario, seed=0)
        tenants = result.report.tenants.values()
        assert result.sweep[0]["offered"] == sum(s.offered for s in tenants)
        assert result.sweep[0]["shed"] == sum(s.shed for s in tenants)

    def test_cap_sweep_keeps_the_sdc_defense(self):
        scenario = dataclasses.replace(
            SCENARIOS["silent-corruption-storm"],
            powercap=PowerCapConfig(fleet_budget_watts=240.0),
            cap_multipliers=(1.0,),
        )
        result = run_scenario(scenario, seed=0)
        row = result.cap_sweep[0]
        power = result.report.power
        assert row["served"] == sum(
            s.served for s in result.report.tenants.values()
        )
        assert row["energy_joules"] == power["energy_joules"]
        assert row["mean_throttle_ratio"] == power["mean_throttle_ratio"]


def test_default_stats_container_roundtrips():
    stats = FleetTenantStats(tenant="t")
    assert stats.availability == 1.0
    assert stats.availability_while_healthy == 1.0
    assert stats.to_dict()["tenant"] == "t"
