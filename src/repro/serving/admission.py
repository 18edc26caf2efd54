"""SLO-class admission: bounded queues, early shedding, brownout.

The paper sells the i20 as a *cloud inference* part; the defining cloud
constraint is that offered load is open-loop — when it exceeds capacity,
something must give, and the operator chooses *what* gives. This module
encodes that choice as policy shared by
:class:`~repro.serving.server.InferenceServer` and
:class:`~repro.serving.fleet.FleetManager`:

- **SLO classes** — every request carries a class
  (``interactive`` / ``standard`` / ``batch`` by default) with its own
  deadline, bounded queue and brownout priority;
- **bounded per-class queues** — an arrival to a class already holding
  ``queue_limit`` queued-or-in-flight requests is shed immediately
  (reason ``queue-full``) instead of growing an unbounded backlog;
- **deadline-aware early shedding** — an arrival whose *predicted*
  completion (current queue wait + one service time) already exceeds the
  class deadline is rejected now rather than served uselessly late
  (reason ``deadline``): under overload, serving a certainly-late request
  only steals capacity from one that could still make its deadline;
- **brownout** — a backpressure signal in [0, 1] (worst per-class queue
  fullness) drives a stepped degradation level with hysteresis
  (``brownout_enter`` / ``brownout_exit``): level 1 sheds the highest
  shed-priority class (``batch``), level 2 additionally sheds the next
  (``standard``), and so on — classes with shed priority 0
  (``interactive``) are *never* brownout-shed (reason ``brownout``);
- **backpressure** — the same signal is exported as a gauge and consumed
  by the :mod:`~repro.serving.autoscale` loop, so shedding and scaling
  react to one number.

Everything here is pure deterministic state machinery — no RNG, no
clocks — so admission decisions replay bit-identically inside seeded
chaos storms. docs/serving.md draws the admit/shed state machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproRuntimeError

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "DEFAULT_SLO_CLASSES",
    "SloClass",
]


@dataclass(frozen=True)
class SloClass:
    """One service class: deadline + queue bound + brownout priority."""

    name: str
    deadline_ms: float | None
    """Completion target; ``None`` means best-effort (never deadline-shed)."""
    queue_limit: int
    """Bounded queue: arrivals beyond this depth are shed (queue-full)."""
    shed_priority: int
    """Brownout order: higher sheds earlier; 0 is never brownout-shed."""

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ReproRuntimeError(
                f"SloClass {self.name!r}: queue_limit must be >= 1, "
                f"got {self.queue_limit}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ReproRuntimeError(
                f"SloClass {self.name!r}: deadline_ms must be > 0 or None, "
                f"got {self.deadline_ms}"
            )
        if self.shed_priority < 0:
            raise ReproRuntimeError(
                f"SloClass {self.name!r}: shed_priority must be >= 0, "
                f"got {self.shed_priority}"
            )


#: The canonical three-class policy: latency-critical interactive traffic,
#: latency-tolerant standard traffic, and throughput-oriented batch work
#: that brownout sheds first.
DEFAULT_SLO_CLASSES = (
    SloClass("interactive", deadline_ms=50.0, queue_limit=64, shed_priority=0),
    SloClass("standard", deadline_ms=250.0, queue_limit=128, shed_priority=1),
    SloClass("batch", deadline_ms=None, queue_limit=256, shed_priority=2),
)

#: Class assumed for requests whose ``slo_class`` is unknown — keeps
#: legacy traces (all ``standard``) flowing through unchanged.
DEFAULT_CLASS = "standard"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str = ""
    """Empty when admitted; ``queue-full`` / ``deadline`` / ``brownout``
    when shed (plus ``no-capacity``, stamped by the fleet when zero
    replicas are active)."""


@dataclass(frozen=True)
class AdmissionPolicy:
    """The static half of admission: classes + brownout thresholds."""

    classes: tuple[SloClass, ...] = DEFAULT_SLO_CLASSES
    brownout_enter: float = 0.85
    """Backpressure at/above which the brownout level steps up."""
    brownout_exit: float = 0.5
    """Backpressure at/below which the brownout level steps down."""

    def __post_init__(self) -> None:
        if not self.classes:
            raise ReproRuntimeError("AdmissionPolicy: needs >= 1 SLO class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ReproRuntimeError(
                f"AdmissionPolicy: duplicate class names {names}"
            )
        if not 0.0 <= self.brownout_exit < self.brownout_enter <= 1.0:
            raise ReproRuntimeError(
                f"AdmissionPolicy: need 0 <= brownout_exit < brownout_enter "
                f"<= 1, got exit={self.brownout_exit} "
                f"enter={self.brownout_enter}"
            )
        if DEFAULT_CLASS not in names:
            raise ReproRuntimeError(
                f"AdmissionPolicy: default class {DEFAULT_CLASS!r} "
                f"not among classes {names}"
            )

    def class_for(self, name: str) -> SloClass:
        """Resolve a request's class, falling back to the default."""
        for cls in self.classes:
            if cls.name == name:
                return cls
        return self.class_for(DEFAULT_CLASS)

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(cls.name for cls in self.classes)

    @property
    def max_brownout_level(self) -> int:
        """Deepest level: one step per class with shed priority > 0."""
        return sum(1 for cls in self.classes if cls.shed_priority > 0)


class AdmissionController:
    """Runtime admission state: brownout level + peak-signal accounting.

    One controller serves one run; :meth:`reset` restores the pristine
    state so repeated runs of the same trace replay bit-identically.
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self.reset()
        # Classes sorted by descending shed priority: level L sheds the
        # first L entries of this list (priority-0 classes excluded).
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

    def reset(self) -> None:
        self.brownout_level = 0
        self.peak_backpressure = 0.0
        self.max_level_seen = 0
        self.level_changes = 0

    # -- signals -----------------------------------------------------------

    def backpressure(self, depths: dict[str, int]) -> float:
        """Worst per-class queue fullness in [0, 1]: max(depth/limit)."""
        worst = 0.0
        for name, limit in self._limits:
            worst = max(worst, min(1.0, depths.get(name, 0) / limit))
        return worst

    def update(self, backpressure: float) -> int:
        """Step the brownout level by at most 1 with hysteresis.

        Levels rise at ``brownout_enter`` and fall at ``brownout_exit``;
        the dead band between the two stops the level oscillating when
        the signal hovers near one threshold.
        """
        self.peak_backpressure = max(self.peak_backpressure, backpressure)
        if (
            backpressure >= self.policy.brownout_enter
            and self.brownout_level < self.policy.max_brownout_level
        ):
            self.brownout_level += 1
            self.level_changes += 1
        elif backpressure <= self.policy.brownout_exit and self.brownout_level > 0:
            self.brownout_level -= 1
            self.level_changes += 1
        self.max_level_seen = max(self.max_level_seen, self.brownout_level)
        return self.brownout_level

    def sheds(self, slo_class: str) -> bool:
        """Is this class brownout-shed at the current level?"""
        cls = self.policy.class_for(slo_class)
        return cls.name in self._shed_order[: self.brownout_level]

    # -- the decision ------------------------------------------------------

    def decide(
        self,
        slo_class: str,
        depth: int,
        predicted_wait_ns: float,
        service_ns: float,
    ) -> AdmissionDecision:
        """Admit or shed one arrival of ``slo_class``.

        ``depth`` is the class's queued-or-in-flight count at the arrival,
        ``predicted_wait_ns`` the estimated time until service could start
        and ``service_ns`` one service time — the deadline check rejects
        requests that would *certainly* finish past their class deadline
        even if everything goes well from here.
        """
        cls = self.policy.class_for(slo_class)
        if self.sheds(cls.name):
            return AdmissionDecision(False, "brownout")
        if depth >= cls.queue_limit:
            return AdmissionDecision(False, "queue-full")
        if (
            cls.deadline_ms is not None
            and predicted_wait_ns + service_ns > cls.deadline_ms * 1e6
        ):
            return AdmissionDecision(False, "deadline")
        return AdmissionDecision(True)

    def admit(
        self,
        slo_class: str,
        depths,
        predicted_wait_ns: float,
        service_ns: float,
        pressure_floor: float = 0.0,
    ) -> AdmissionDecision:
        """One arrival end to end: backpressure, brownout step, decision.

        ``depths`` maps class name -> queued-or-in-flight count at the
        arrival (``depths.get(name, 0)``). ``pressure_floor`` is an
        outside brownout driver — the fleet passes its power governor's
        throttle pressure, so a capped fleet escalates brownout instead
        of queueing into SLO misses it cannot serve at the throttled rate.
        """
        self.update(max(self.backpressure(depths), pressure_floor))
        return self.decide(
            slo_class, depths.get(slo_class, 0), predicted_wait_ns, service_ns
        )
