"""Autoscaler: grow/retire fleet replicas against p99 + queue signals.

The fleet (PR 4) already owns the hardware lifecycle — hot spares promote
when an active replica quarantines. This module adds the *demand* side:
a control loop that watches per-SLO-class p99 latency (interpolated from
:class:`~repro.obs.metrics.HistogramSeries` buckets via ``quantile`` —
the same estimator the reports use) and the admission layer's
backpressure signal, and decides when the fleet should promote a standby
replica into the routing pool (scale up) or drain an active one back to
standby (scale down).

Stability is a first-class requirement — the chaos harness checks an
``autoscaler-convergence`` invariant ("no flapping"):

- at most one scaling action per evaluation window;
- a **cooldown** after every action during which no further action fires;
- scale-down additionally requires ``scale_down_consecutive`` quiet
  windows in a row, so one lull inside a flash crowd never sheds
  capacity the next spike needs.

The loop is pure deterministic arithmetic over observed latencies — no
RNG, no wall clock — so autoscaled chaos scenarios replay byte-for-byte
from one root seed. docs/serving.md documents the policy; the fleet
exports ``autoscaler_replicas`` / ``autoscaler_scale_events_total``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ReproRuntimeError, reject_non_finite
from repro.obs.metrics import DEFAULT_BUCKETS_MS, HistogramSeries

__all__ = ["Autoscaler", "AutoscalerConfig", "ScaleAction"]

#: Scale-down needs every targeted class p99 under this fraction of its
#: target.
SCALE_DOWN_FRACTION = 0.5
#: Queue-depth signal at/above which the loop votes scale-up.
BACKPRESSURE_HIGH = 0.75
#: Queue-depth signal the loop requires for a scale-down vote.
BACKPRESSURE_LOW = 0.25


@dataclass(frozen=True)
class AutoscalerConfig:
    """Policy knobs for one :class:`Autoscaler` control loop."""

    min_active: int = 1
    """Never drain below this many active replicas."""
    max_active: int = 8
    """Never grow beyond this many active replicas (also capped by the
    number of devices the fleet actually opened)."""
    eval_interval_ms: float = 25.0
    """Control-loop period on the trace timeline."""
    p99_targets_ms: tuple[tuple[str, float], ...] = (
        ("interactive", 40.0),
        ("standard", 150.0),
    )
    """Per-class p99 ceilings; any class over its target votes scale-up."""
    cooldown_ms: float = 75.0
    """Dead time after any action before the next may fire."""
    scale_down_consecutive: int = 3
    """Quiet windows in a row required before draining a replica."""

    def __post_init__(self) -> None:
        def reject(message: str) -> None:
            raise ReproRuntimeError(f"AutoscalerConfig: {message}")

        reject_non_finite(self)
        if self.min_active < 1:
            reject(f"min_active must be >= 1, got {self.min_active}")
        if self.max_active < self.min_active:
            reject(
                f"max_active {self.max_active} < min_active {self.min_active}"
            )
        if self.eval_interval_ms <= 0:
            reject(f"eval_interval_ms must be > 0, got {self.eval_interval_ms}")
        if self.cooldown_ms < 0:
            reject(f"cooldown_ms must be >= 0, got {self.cooldown_ms}")
        if self.scale_down_consecutive < 1:
            reject(
                f"scale_down_consecutive must be >= 1, "
                f"got {self.scale_down_consecutive}"
            )
        for name, target in self.p99_targets_ms:
            if target <= 0:
                reject(f"p99 target for {name!r} must be > 0, got {target}")

    @property
    def targets(self) -> dict[str, float]:
        return dict(self.p99_targets_ms)


@dataclass(frozen=True)
class ScaleAction:
    """One decision the loop took (recorded for the convergence check)."""

    time_ns: float
    direction: str
    """``up`` or ``down``."""
    reason: str
    active_before: int


@dataclass
class _Window:
    """Latency observations accumulated since the last evaluation."""

    series: dict[str, HistogramSeries] = field(default_factory=dict)

    def observe(self, slo_class: str, latency_ms: float) -> None:
        series = self.series.get(slo_class)
        if series is None:
            # The per-window p99 interpolates from the default buckets.
            series = self.series[slo_class] = HistogramSeries(
                DEFAULT_BUCKETS_MS
            )
        series.observe(latency_ms)

    def p99(self, slo_class: str) -> float | None:
        series = self.series.get(slo_class)
        if series is None or series.count == 0:
            return None
        return series.quantile(0.99)


class Autoscaler:
    """The runtime control loop; the fleet drives :meth:`evaluate`.

    The caller owns the actuation (promote/drain a replica through its
    lifecycle machinery); the loop only answers "+1, -1 or hold" and
    keeps the action history the convergence invariant audits.
    """

    def __init__(self, config: AutoscalerConfig | None = None) -> None:
        self.config = config or AutoscalerConfig()
        self.reset()

    def reset(self) -> None:
        """Pristine state so repeated runs replay bit-identically."""
        self.actions: list[ScaleAction] = []
        self._window = _Window()
        self._last_action_ns: float | None = None
        self._quiet_streak = 0
        self.power_blocked_ups = 0

    # -- signal intake -----------------------------------------------------

    def observe(self, slo_class: str, latency_ms: float) -> None:
        """Record one served request's latency into the current window."""
        self._window.observe(slo_class, latency_ms)

    # -- the control decision ----------------------------------------------

    def evaluate(
        self,
        now_ns: float,
        active: int,
        backpressure: float,
        can_up: bool = True,
        can_down: bool = True,
        power_feasible: bool = True,
    ) -> int:
        """One control tick: returns the desired replica delta (+1/-1/0).

        Scale-up fires when any targeted class's window p99 exceeds its
        target or the backpressure signal is high; scale-down needs every
        targeted class comfortably under target *and* low backpressure
        for ``scale_down_consecutive`` consecutive windows. A cooldown
        after each action stops the loop flapping.

        ``can_up`` / ``can_down`` are the caller's feasibility flags (a
        standby must exist to promote; an active replica must be
        drainable) — an infeasible action is never recorded, keeping the
        convergence audit honest about what the loop *did*.
        ``power_feasible`` is the fleet power governor's budget check: a
        promotion the rack budget cannot power is suppressed (and tallied
        in ``power_blocked_ups``) rather than throttled back down a
        window later — scaling into a power cap is a guaranteed flap.
        """
        cfg = self.config
        window, self._window = self._window, _Window()
        in_cooldown = (
            self._last_action_ns is not None
            and now_ns - self._last_action_ns < cfg.cooldown_ms * 1e6
        )
        overloaded_classes = []
        quiet = backpressure <= BACKPRESSURE_LOW
        for name, target in cfg.p99_targets_ms:
            p99 = window.p99(name)
            if p99 is None:
                continue
            if p99 > target:
                overloaded_classes.append((name, p99, target))
            if p99 > SCALE_DOWN_FRACTION * target:
                quiet = False
        overloaded = bool(overloaded_classes) or (
            backpressure >= BACKPRESSURE_HIGH
        )
        if overloaded:
            self._quiet_streak = 0
            if in_cooldown or active >= cfg.max_active or not can_up:
                return 0
            if not power_feasible:
                self.power_blocked_ups += 1
                return 0
            if overloaded_classes:
                name, p99, target = overloaded_classes[0]
                reason = f"p99[{name}] {p99:.1f}ms > target {target:.1f}ms"
            else:
                reason = f"backpressure {backpressure:.2f} >= " \
                         f"{BACKPRESSURE_HIGH:.2f}"
            self._record(now_ns, "up", reason, active)
            return 1
        if quiet:
            self._quiet_streak += 1
            if (
                not in_cooldown
                and can_down
                and active > cfg.min_active
                and self._quiet_streak >= cfg.scale_down_consecutive
            ):
                self._quiet_streak = 0
                self._record(
                    now_ns, "down",
                    f"{cfg.scale_down_consecutive} quiet windows, "
                    f"backpressure {backpressure:.2f}",
                    active,
                )
                return -1
        else:
            self._quiet_streak = 0
        return 0

    def _record(
        self, now_ns: float, direction: str, reason: str, active: int
    ) -> None:
        self._last_action_ns = now_ns
        self.actions.append(
            ScaleAction(
                time_ns=now_ns, direction=direction, reason=reason,
                active_before=active,
            )
        )

    # -- audit views -------------------------------------------------------

    @property
    def scale_ups(self) -> int:
        return sum(1 for action in self.actions if action.direction == "up")

    @property
    def scale_downs(self) -> int:
        return sum(1 for action in self.actions if action.direction == "down")

    def reversals(self) -> int:
        """Direction changes across the action history (flap measure)."""
        flips = 0
        for previous, current in zip(self.actions, self.actions[1:]):
            if previous.direction != current.direction:
                flips += 1
        return flips
