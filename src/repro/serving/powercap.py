"""Fleet power governor: datacenter power capping over CPME/DVFS.

The paper's power engines exist per device — CPME budget borrowing
(§IV-F1) and the 4-stage DVFS loop (§IV-F2) — but a rack has one breaker,
not one per board. This module adds the coordination layer:

- :class:`FleetPowerGovernor` owns a fleet power budget (optionally
  storm-shaped over time by :class:`PowerCapPhase` step/ramp/oscillate
  cuts) and re-apportions it into per-device caps every governor window
  from the draw each device showed in the window just ended, in
  proportion to each active device's demand above idle;
- each device cap is actuated through the modelled paper machinery: the
  device's :class:`~repro.power.cpme.Cpme` is re-capped via
  ``set_power_limit`` (reserve shrinks, LPME budgets claw back toward
  their static floors), the :class:`~repro.power.dvfs.DvfsController`
  takes a forced step down to the highest envelope frequency whose
  full-activity draw fits the cap, and any residual over-draw becomes an
  LPME-style stall throttle — so a capped device slows down instead of
  failing;
- the performance echo is a deterministic **service-time dilation**
  ``(f_max / f) / (1 - stall)`` applied to every dispatch on the device,
  which is how a power-cap storm turns into p99 inflation, admission
  backpressure (brownout under sustained throttle) and autoscaler
  feasibility limits rather than dropped requests.

Power integrity is enforced instantaneously at the window level (the
LPME negative-feedback loop holds a unit at its budget within a window),
so modelled draw never exceeds the cap in force; the dilation is the
lagging performance cost. A device whose floor the budget cannot cover is
**parked** (cap 0, excluded from routing) — graceful degradation ends in
an orderly brownout, never an uncontrolled shed.

Everything is pure arithmetic over the fleet's deterministic timeline:
the same trace, config and seed produce byte-identical window rows,
energy totals and reports. With no governor attached the fleet path is
untouched (bit-identical to a build without this module).

See docs/power.md for the loop diagram, the apportionment rule and the
perf/W accounting convention.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.core.config import ChipConfig
from repro.core.errors import ReproRuntimeError, reject_non_finite
from repro.power.cpme import Cpme
from repro.power.dvfs import DvfsController, Observation
from repro.power.model import DvfsCurve, UnitPowerModel, UnitPowerParams
from repro.serving.routing import ReplicaStatus

__all__ = [
    "FleetPowerGovernor",
    "PowerCapConfig",
    "PowerCapPhase",
]

_PHASE_SHAPES = ("step", "ramp", "oscillate")


@dataclass(frozen=True)
class PowerCapPhase:
    """One scheduled change of the fleet budget on the trace timeline.

    ``step`` holds ``budget_watts`` for the whole phase; ``ramp``
    interpolates linearly from the base budget at ``start_s`` down (or up)
    to ``budget_watts`` at ``end_s``; ``oscillate`` square-waves between
    ``budget_watts`` and the base budget every half ``period_s`` — the
    power-cap-storm worst case for cap-loop stability.
    """

    start_s: float
    end_s: float
    budget_watts: float
    shape: str = "step"
    period_s: float = 0.1

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.end_s <= self.start_s:
            raise ReproRuntimeError(
                f"PowerCapPhase: end_s {self.end_s} must be after "
                f"start_s {self.start_s}"
            )
        if self.budget_watts < 0:
            raise ReproRuntimeError(
                f"PowerCapPhase: negative budget {self.budget_watts}"
            )
        if self.shape not in _PHASE_SHAPES:
            raise ReproRuntimeError(
                f"PowerCapPhase: unknown shape {self.shape!r} "
                f"(expected one of {_PHASE_SHAPES})"
            )
        if self.shape == "oscillate" and self.period_s <= 0:
            raise ReproRuntimeError(
                f"PowerCapPhase: oscillate needs period_s > 0, "
                f"got {self.period_s}"
            )

    def budget_at(self, t_s: float, base_watts: float) -> float:
        """Budget this phase dictates at ``t_s`` (caller checks activity)."""
        if self.shape == "step":
            return self.budget_watts
        if self.shape == "ramp":
            span = self.end_s - self.start_s
            frac = min(1.0, max(0.0, (t_s - self.start_s) / span))
            return base_watts + (self.budget_watts - base_watts) * frac
        half = self.period_s / 2.0
        phase_index = int((t_s - self.start_s) / half)
        return self.budget_watts if phase_index % 2 == 0 else base_watts


#: Governor re-apportionment window on the trace timeline.
WINDOW_MS = 5.0
#: Static floor of one powered device (modelled chip static power).
DEVICE_IDLE_WATTS = 45.0
#: Routing avoids replicas throttled beyond this (power-headroom score);
#: soft — avoided replicas still serve when nothing else can.
ROUTE_AVOID_THROTTLE = 0.35
#: Sustained mean throttle >= ``BROWNOUT_THROTTLE`` for
#: ``BROWNOUT_WINDOWS`` consecutive windows feeds full backpressure into
#: admission.
BROWNOUT_THROTTLE = 0.5
BROWNOUT_WINDOWS = 2
#: Autoscaler feasibility: a promotion needs headroom for this fraction
#: of every active device's dynamic range.
MIN_VIABLE_FRACTION = 0.25
#: Stall-throttle ceiling; beyond it a device parks instead.
MAX_STALL = 0.95


@dataclass(frozen=True)
class PowerCapConfig:
    """Typed knobs of one :class:`FleetPowerGovernor`.

    The DVFS envelope and the full-activity draw are the fleet chip's
    (``base_clock_ghz``..``max_clock_ghz`` and ``tdp_watts``), not knobs.
    """

    fleet_budget_watts: float
    """Base rack/datacenter budget the governor apportions."""
    phases: tuple[PowerCapPhase, ...] = ()
    """Scheduled budget cuts; the latest active phase wins."""

    def __post_init__(self) -> None:
        def reject(message: str) -> None:
            raise ReproRuntimeError(f"PowerCapConfig: {message}")

        reject_non_finite(self)
        if self.fleet_budget_watts <= 0:
            reject(f"fleet_budget_watts must be > 0, got {self.fleet_budget_watts}")

    def budget_at(self, t_ns: float) -> float:
        """Fleet budget in force at ``t_ns`` (latest active phase wins)."""
        t_s = t_ns / 1e9
        budget = self.fleet_budget_watts
        for phase in self.phases:
            if phase.start_s <= t_s < phase.end_s:
                budget = phase.budget_at(t_s, self.fleet_budget_watts)
        return budget

    def scaled(self, multiplier: float) -> "PowerCapConfig":
        """A copy with every budget (base + phases) scaled — the
        cap-monotonicity sweep tightens the whole storm at once."""
        return replace(
            self,
            fleet_budget_watts=self.fleet_budget_watts * multiplier,
            phases=tuple(
                replace(phase, budget_watts=phase.budget_watts * multiplier)
                for phase in self.phases
            ),
        )


@dataclass
class _DeviceState:
    """Per-replica modelled power machinery and its window accounting."""

    index: int
    name: str
    unit: UnitPowerModel
    cpme: Cpme
    dvfs: DvfsController
    cap_watts: float
    stall: float = 0.0
    dilation: float = 1.0
    parked: bool = False
    busy: deque = field(default_factory=deque)
    busy_carry_ns: float = 0.0
    energy_joules: float = 0.0
    cap_sum_watts: float = 0.0
    draw_sum_watts: float = 0.0
    throttle_sum: float = 0.0
    throttled_windows: int = 0
    parked_windows: int = 0

    @property
    def throttle(self) -> float:
        """Fraction of the device's peak service rate the cap forgoes."""
        return 1.0 - 1.0 / self.dilation


class FleetPowerGovernor:
    """Apportions one fleet power budget into per-device caps per window.

    Driven by :class:`~repro.serving.fleet.FleetManager`: the run loop
    calls :meth:`close_window` at every window boundary on the trace
    timeline (and :meth:`note_busy` per dispatch); the governor hands
    back per-device dilations and routing exclusions. It never touches
    the fleet's RNG streams — a governed run is exactly as deterministic
    as an ungoverned one.

    ``chip`` is the fleet's chip: every device moves inside its DVFS
    envelope (``base_clock_ghz``..``max_clock_ghz``, paper §IV-F2) and
    draws ``tdp_watts`` at full activity and full clock.
    """

    def __init__(self, config: PowerCapConfig, chip: ChipConfig) -> None:
        self.config = config
        self.window_ns = WINDOW_MS * 1e6
        self._peak_watts = chip.tdp_watts
        f_min, f_max = chip.base_clock_ghz, chip.max_clock_ghz
        self._curve = DvfsCurve(f_min, f_max)
        # Envelope frequencies, highest first, for the forced-step search.
        steps = int(round((f_max - f_min) / 0.1))
        self._envelope = [
            self._curve.clamp(f_max - 0.1 * k) for k in range(steps + 1)
        ]
        # No devices until the fleet resets the governor with its replicas.
        self.reset([])

    # -- lifecycle ---------------------------------------------------------

    def reset(self, replicas) -> None:
        """Rebuild pristine per-device machinery for one fleet run."""
        cfg = self.config
        peak = self._peak_watts
        self._devices: list[_DeviceState] = []
        for replica in replicas:
            params = UnitPowerParams(
                name=replica.name,
                static_watts=DEVICE_IDLE_WATTS,
                dynamic_watts_peak=peak - DEVICE_IDLE_WATTS,
            )
            unit = UnitPowerModel(params, self._curve)
            cpme = Cpme(power_limit_watts=peak)
            cpme.register_units({"chip": unit})
            dvfs = DvfsController(curve=self._curve, hysteresis_windows=2)
            self._devices.append(
                _DeviceState(
                    index=replica.index, name=replica.name, unit=unit,
                    cpme=cpme, dvfs=dvfs, cap_watts=peak,
                )
            )
        self.windows = 0
        self.reapportions = 0
        self.budget_min_watts = cfg.fleet_budget_watts
        self.peak_draw_watts = 0.0
        self.peak_throttle = 0.0
        self.throttle_ratio = 0.0
        self._throttle_ratio_sum = 0.0
        self._draw_time_sum = 0.0
        self._high_throttle_streak = 0
        self.brownout_pressure_windows = 0
        self.power_blocked_scaleups = 0
        self.window_rows: list[dict] = []
        # Boot apportionment: caps in force before the first window closes.
        self._apportion(
            cfg.budget_at(0.0),
            [replica.status for replica in replicas],
            [0.0] * len(self._devices),
        )

    def note_busy(self, index: int, start_ns: float, finish_ns: float) -> None:
        """Record one occupied interval on a device (fleet dispatch)."""
        if finish_ns > start_ns:
            self._devices[index].busy.append((start_ns, finish_ns))

    # -- the governor window ----------------------------------------------

    def close_window(self, end_ns: float, statuses) -> None:
        """Account the window ending at ``end_ns`` and re-apportion caps.

        Draw is modelled from each device's occupied fraction of the
        window at the frequency/stall in force, clamped at the cap in
        force (the LPME holds its unit at budget within a window), then
        the budget at ``end_ns`` is redistributed from that observed draw.
        """
        window_ns = self.window_ns
        start_ns = end_ns - window_ns
        span_s = window_ns / 1e9
        cap_in_force = 0.0
        draw_total = 0.0
        demands = []
        for state, status in zip(self._devices, statuses):
            # Occupied intervals on one replica are serialized (free_at),
            # so at most one spans the window end; its tail is carried
            # forward, possibly across several windows for long services.
            carry = state.busy_carry_ns
            busy_ns = min(carry, window_ns)
            state.busy_carry_ns = max(0.0, carry - window_ns)
            pending = state.busy
            while pending:
                busy_start, busy_finish = pending[0]
                if busy_start >= end_ns:
                    break
                pending.popleft()
                clipped_finish = min(busy_finish, end_ns)
                busy_ns += clipped_finish - max(busy_start, start_ns)
                if busy_finish > end_ns:
                    state.busy_carry_ns += busy_finish - end_ns
                    break
            utilization = min(1.0, busy_ns / window_ns)
            if state.parked or status is ReplicaStatus.RETIRED:
                draw = 0.0
            else:
                # Stalled cycles do not toggle: effective switching
                # activity is the occupied fraction times (1 - stall).
                draw = state.unit.power_watts(
                    utilization * (1.0 - state.stall), state.dvfs.f_ghz
                )
                draw = min(draw, state.cap_watts)
            # Demand is the *unclamped* dynamic power the occupancy would
            # have drawn at full clock — weighting by clamped draw would
            # trap a starved device at its cap forever.
            demands.append(
                utilization * state.unit.params.dynamic_watts_peak
            )
            cap_in_force += 0.0 if state.parked else state.cap_watts
            draw_total += draw
            state.energy_joules += draw * span_s
            state.draw_sum_watts += draw
        budget = self.config.budget_at(end_ns)
        parked = self._apportion(budget, statuses, demands)
        throttle_values = [
            state.throttle
            for state, status in zip(self._devices, statuses)
            if status is ReplicaStatus.ACTIVE and not state.parked
        ]
        throttle_ratio = (
            sum(throttle_values) / len(throttle_values)
            if throttle_values else 0.0
        )
        self.windows += 1
        self.throttle_ratio = throttle_ratio
        self._throttle_ratio_sum += throttle_ratio
        self._draw_time_sum += draw_total
        self.budget_min_watts = min(self.budget_min_watts, budget)
        self.peak_draw_watts = max(self.peak_draw_watts, draw_total)
        self.peak_throttle = max(self.peak_throttle, throttle_ratio)
        if throttle_ratio >= BROWNOUT_THROTTLE:
            self._high_throttle_streak += 1
        else:
            self._high_throttle_streak = 0
        if self._high_throttle_streak >= BROWNOUT_WINDOWS:
            self.brownout_pressure_windows += 1
        for state in self._devices:
            state.cap_sum_watts += 0.0 if state.parked else state.cap_watts
            if state.throttle > 1e-12 and not state.parked:
                state.throttled_windows += 1
            if state.parked:
                state.parked_windows += 1
        self.window_rows.append(
            {
                "end_ns": end_ns,
                "budget_watts": budget,
                "cap_watts": sum(
                    0.0 if state.parked else state.cap_watts
                    for state in self._devices
                ),
                "cap_in_force_watts": cap_in_force,
                "draw_watts": draw_total,
                "throttle_ratio": throttle_ratio,
                "parked": parked,
            }
        )

    def _apportion(
        self, budget: float, statuses, demands: list[float]
    ) -> int:
        """Distribute ``budget`` into per-device caps; returns parked count.

        Every powered device is floored at idle; the surplus goes to
        active devices in proportion to their demand (equally when none
        shows any), then any clamped-off leftover is
        re-offered in index order so surplus never strands while a
        device throttles. Caps are allocated against a running remainder
        so their float sum can never exceed the budget. Devices the
        floors cannot cover are parked — standbys first, then
        quarantined boards, then the highest-index actives.
        """
        idle = DEVICE_IDLE_WATTS
        peak = self._peak_watts
        powered = [
            state for state, status in zip(self._devices, statuses)
            if status is not ReplicaStatus.RETIRED
        ]
        for state, status in zip(self._devices, statuses):
            if status is ReplicaStatus.RETIRED:
                state.parked = True
                state.cap_watts = 0.0
        park_rank = {
            ReplicaStatus.STANDBY: 0,
            ReplicaStatus.QUARANTINED: 1,
            ReplicaStatus.ACTIVE: 2,
        }
        order = sorted(
            zip(powered, (status for status in statuses
                          if status is not ReplicaStatus.RETIRED)),
            key=lambda pair: (park_rank[pair[1]], -pair[0].index),
        )
        keep = list(order)
        while keep and idle * len(keep) > budget + 1e-9:
            state, _status = keep.pop(0)
            state.parked = True
            state.cap_watts = 0.0
            state.stall = 0.0
            state.dilation = 1.0
        kept_states = {id(state) for state, _status in keep}
        parked = sum(1 for state in powered if id(state) not in kept_states)
        actives = sorted(
            (state for state, status in keep
             if status is ReplicaStatus.ACTIVE),
            key=lambda state: state.index,
        )
        surplus = budget - idle * len(keep)
        # state.index doubles as the position in the device list.
        weights = [max(0.0, demands[state.index]) for state in actives]
        if sum(weights) <= 0:
            weights = [1.0] * len(actives)
        remaining = surplus
        grants: dict[int, float] = {}
        total = sum(weights)
        for state, weight in zip(actives, weights):
            share = surplus * weight / total
            give = min(peak - idle, share, remaining)
            grants[state.index] = give
            remaining -= give
        # Top-up pass: shares clamped at peak leave surplus behind;
        # re-offer it in index order so a generous budget lifts
        # every device to peak instead of stranding watts.
        for state in actives:
            if remaining <= 1e-12:
                break
            room = (peak - idle) - grants[state.index]
            if room > 0.0:
                give = min(room, remaining)
                grants[state.index] += give
                remaining -= give
        changed = False
        for state, status in keep:
            state.parked = False
            cap = idle + grants.get(state.index, 0.0)
            if cap != state.cap_watts:
                changed = True
                state.cap_watts = cap
                state.cpme.set_power_limit(cap)
            self._actuate(state, status)
        if changed:
            self.reapportions += 1
        return parked

    def _actuate(self, state: _DeviceState, status) -> None:
        """Turn one device's cap into a DVFS step + stall throttle."""
        cap = state.cap_watts
        unit = state.unit
        f_max = self._curve.f_max_ghz
        f_cap = self._curve.f_min_ghz
        for f_ghz in self._envelope:
            if unit.power_watts(1.0, f_ghz) <= cap + 1e-12:
                f_cap = f_ghz
                break
        state.dvfs.set_cap(None if f_cap >= f_max - 1e-12 else f_cap)
        if status is not ReplicaStatus.ACTIVE:
            # Non-serving boards idle at their floor; no dilation needed.
            state.stall = 0.0
            state.dilation = 1.0
            return
        # The Observation feeds the classifier a saturated duty cycle —
        # an active device under cap pressure is compute-bound by
        # definition; the cap ceiling keeps the step honest.
        decision = state.dvfs.update(
            Observation(busy_ratio=1.0, dma_stall_ratio=0.0)
        )
        f_next = decision.f_ghz
        projected = unit.power_watts(1.0, f_next)
        stall = 0.0
        if projected > cap:
            static = unit.params.static_watts
            dynamic = projected - static
            allowed = max(0.0, cap - static)
            stall = min(MAX_STALL, 1.0 - allowed / dynamic)
        state.stall = stall
        state.dilation = (f_max / f_next) / (1.0 - stall)

    # -- signals the fleet composes with -----------------------------------

    def dilations(self) -> dict[int, float]:
        return {
            state.index: (1.0 if state.parked else state.dilation)
            for state in self._devices
        }

    def parked_indices(self) -> frozenset[int]:
        return frozenset(
            state.index for state in self._devices if state.parked
        )

    def avoid_indices(self) -> frozenset[int]:
        """Replicas the router should steer around (low power headroom)."""
        return frozenset(
            state.index for state in self._devices
            if not state.parked and state.throttle > ROUTE_AVOID_THROTTLE
        )

    def power_pressure(self) -> float:
        """Backpressure the admission layer folds in (brownout driver)."""
        if self._high_throttle_streak >= BROWNOUT_WINDOWS:
            return min(1.0, self.throttle_ratio / BROWNOUT_THROTTLE)
        return 0.0

    def can_power_promotion(self, active_count: int) -> bool:
        """Autoscaler feasibility: is there budget for one more active?"""
        budget = (
            self.window_rows[-1]["budget_watts"]
            if self.window_rows else self.config.budget_at(0.0)
        )
        powered = sum(1 for state in self._devices if not state.parked)
        headroom = budget - DEVICE_IDLE_WATTS * powered
        needed = (
            (active_count + 1)
            * MIN_VIABLE_FRACTION
            * (self._peak_watts - DEVICE_IDLE_WATTS)
        )
        return headroom >= needed

    # -- reporting ----------------------------------------------------------

    def build_report(self, served_total: int) -> dict:
        """JSON-stable power section of the fleet report."""
        cfg = self.config
        energy = sum(state.energy_joules for state in self._devices)
        windows = max(1, self.windows)
        devices = {}
        for state in self._devices:
            devices[state.name] = {
                "energy_joules": state.energy_joules,
                "mean_cap_watts": state.cap_sum_watts / windows,
                "final_cap_watts": 0.0 if state.parked else state.cap_watts,
                "mean_draw_watts": state.draw_sum_watts / windows,
                "final_throttle": 0.0 if state.parked else state.throttle,
                "throttled_windows": state.throttled_windows,
                "parked_windows": state.parked_windows,
            }
        return {
            # The only apportionment; the key stays for report consumers.
            "policy": "proportional",
            "budget_watts": cfg.fleet_budget_watts,
            "window_ms": WINDOW_MS,
            "windows": self.windows,
            "reapportions": self.reapportions,
            "energy_joules": energy,
            "energy_per_inference_mj": (
                energy * 1e3 / served_total if served_total else 0.0
            ),
            "mean_draw_watts": self._draw_time_sum / windows,
            "peak_draw_watts": self.peak_draw_watts,
            "min_budget_watts": self.budget_min_watts,
            "mean_throttle_ratio": self._throttle_ratio_sum / windows,
            "peak_throttle_ratio": self.peak_throttle,
            "brownout_pressure_windows": self.brownout_pressure_windows,
            "power_blocked_scaleups": self.power_blocked_scaleups,
            "parked_device_windows": sum(
                state.parked_windows for state in self._devices
            ),
            "devices": devices,
            "window_rows": self.window_rows,
        }
