"""Unit tests for FaultPlan / FaultInjector (determinism, hooks, records)."""

import dataclasses

import pytest

from repro.faults import (
    CoreHangFault,
    DeadlineExceededError,
    DmaTransferFault,
    FaultInjector,
    FaultPlan,
    HardwareFault,
    PermanentFault,
    SyncTimeoutError,
    TransientFault,
    UncorrectableEccError,
)
from repro.core.errors import ReproRuntimeError
from repro.faults.plan import (
    CORE_SLOWDOWN_FACTOR,
    ECC_RETRY_NS,
    RATE_FIELDS,
    WATCHDOG_TIMEOUT_NS,
)


class TestFaultPlan:
    def test_default_plan_is_disabled(self):
        assert not FaultPlan().enabled

    def test_any_rate_enables(self):
        assert FaultPlan(dma_corrupt_rate=0.01).enabled
        assert FaultPlan(sync_loss_rate=0.5).enabled

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(dma_corrupt_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(ecc_ue_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(sdc_cores=(-1,))

    def test_holds_only_the_knobs_a_caller_sets(self):
        # Recovery penalties and the corruption shape are module
        # constants (repro.faults.plan, repro.faults.silent).
        assert [f.name for f in dataclasses.fields(FaultPlan)] == [
            "seed", *RATE_FIELDS, "sdc_cores",
        ]
        assert len(RATE_FIELDS) == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dma_corrupt_rate": float("nan")},
            {"ecc_ce_rate": float("inf")},
            {"sdc_gemm_rate": float("nan")},
        ],
    )
    def test_non_finite_fields_rejected(self, kwargs):
        # NaN passes every ordered range check, so it is caught first.
        with pytest.raises(ReproRuntimeError, match=next(iter(kwargs))):
            FaultPlan(**kwargs)

    @pytest.mark.parametrize("name", RATE_FIELDS)
    def test_enabled_matches_the_fields_walk(self, name):
        def walk(plan):
            return any(
                getattr(plan, spec.name) > 0.0
                for spec in dataclasses.fields(plan)
                if spec.name.endswith("_rate")
            )

        plan = FaultPlan(**{name: 0.25})
        assert plan.enabled is walk(plan) is True
        # replace() builds a new plan: no cached value is carried across
        cleared = dataclasses.replace(plan, **{name: 0.0})
        assert cleared.enabled is walk(cleared) is False
        assert dataclasses.replace(cleared, **{name: 0.5}).enabled is True

    def test_rate_fields_are_every_rate(self):
        assert RATE_FIELDS == tuple(
            spec.name
            for spec in dataclasses.fields(FaultPlan)
            if spec.name.endswith("_rate")
        )
        assert len(RATE_FIELDS) == 10

    def test_aggregate_rates(self):
        plan = FaultPlan(dma_corrupt_rate=0.1, ecc_ce_rate=0.1)
        assert plan.transient_event_rate == pytest.approx(1 - 0.9 * 0.9)
        assert plan.fatal_event_rate == 0.0
        fatal = FaultPlan(dma_abort_rate=0.1, ecc_ue_rate=0.1, core_hang_rate=0.1)
        assert fatal.fatal_event_rate == pytest.approx(1 - 0.9**3)


class TestHierarchy:
    def test_fault_exceptions_extend_repro_runtime_error(self):
        for exc in (
            DmaTransferFault, UncorrectableEccError, CoreHangFault,
            SyncTimeoutError, TransientFault, PermanentFault,
            DeadlineExceededError,
        ):
            assert issubclass(exc, ReproRuntimeError)

    def test_transient_vs_permanent_split(self):
        assert issubclass(DmaTransferFault, TransientFault)
        assert issubclass(UncorrectableEccError, TransientFault)
        assert issubclass(CoreHangFault, TransientFault)
        assert not issubclass(PermanentFault, TransientFault)
        assert issubclass(TransientFault, HardwareFault)


class TestInjectorDeterminism:
    def _drive(self, injector, n=200):
        outcomes = []
        for step in range(n):
            outcomes.append(injector.dma_outcome("dma", f"t{step}", float(step)))
            outcomes.append(injector.ecc_outcome("L2", float(step)))
            outcomes.append(
                injector.perturb_compute("k", "g", 100.0, float(step))
            )
            outcomes.append(injector.sync_lost("sync", "b", float(step)))
        return outcomes

    def test_same_seed_same_sequence(self):
        plan = FaultPlan(
            seed=42, dma_corrupt_rate=0.1, dma_abort_rate=0.02,
            ecc_ce_rate=0.1, ecc_ue_rate=0.02, core_hang_rate=0.02,
            core_slowdown_rate=0.1, sync_loss_rate=0.1,
        )
        a, b = FaultInjector(plan), FaultInjector(plan)
        assert self._drive(a) == self._drive(b)
        assert a.records == b.records

    def test_different_seeds_differ(self):
        kwargs = dict(dma_corrupt_rate=0.2, ecc_ce_rate=0.2, sync_loss_rate=0.2)
        a = FaultInjector(FaultPlan(seed=1, **kwargs))
        b = FaultInjector(FaultPlan(seed=2, **kwargs))
        assert self._drive(a) != self._drive(b)

    def test_zero_rates_draw_nothing(self):
        injector = FaultInjector(FaultPlan())
        assert all(
            outcome in (None, False, 0.0, 100.0) for outcome in self._drive(injector)
        )
        assert injector.records == []
        assert not injector.fatal_pending


class TestInjectorHooks:
    def test_dma_abort_queues_fatal(self):
        injector = FaultInjector(FaultPlan(dma_abort_rate=1.0))
        assert injector.dma_outcome("dma.x", "label", 5.0) == "abort"
        assert injector.fatal_pending
        fault = injector.take_fatal()
        assert isinstance(fault, DmaTransferFault)
        assert not injector.fatal_pending
        assert injector.take_fatal() is None

    def test_ecc_ce_returns_penalty(self):
        injector = FaultInjector(FaultPlan(ecc_ce_rate=1.0))
        assert injector.ecc_outcome("L2", 0.0) == ECC_RETRY_NS
        assert injector.records[0].recovered

    def test_ecc_ue_is_fatal(self):
        injector = FaultInjector(FaultPlan(ecc_ue_rate=1.0))
        injector.ecc_outcome("L3", 0.0)
        assert isinstance(injector.take_fatal(), UncorrectableEccError)

    def test_hang_burns_watchdog_window(self):
        injector = FaultInjector(FaultPlan(core_hang_rate=1.0))
        assert (
            injector.perturb_compute("k", "g", 10.0, 0.0) == WATCHDOG_TIMEOUT_NS
        )
        assert isinstance(injector.take_fatal(), CoreHangFault)

    def test_slowdown_scales_compute(self):
        injector = FaultInjector(FaultPlan(core_slowdown_rate=1.0))
        assert (
            injector.perturb_compute("k", "g", 10.0, 0.0)
            == 10.0 * CORE_SLOWDOWN_FACTOR
        )
        assert not injector.fatal_pending

    def test_counters_aggregate_by_kind(self):
        injector = FaultInjector(FaultPlan(ecc_ce_rate=1.0))
        injector.ecc_outcome("L2", 0.0)
        injector.ecc_outcome("L2", 1.0)
        counters = injector.counters()
        assert counters["faults_injected"] == 2
        assert counters["faults_recovered"] == 2
        assert counters["fault.ecc.ce"] == 2
