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

from repro.core.errors import ReproRuntimeError, reject_non_finite

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
        reject_non_finite(self)
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

    @property
    def max_brownout_level(self) -> int:
        """Deepest level: one step per class with shed priority > 0."""
        return sum(1 for cls in self.classes if cls.shed_priority > 0)


#: The four decisions :meth:`AdmissionController.decide` returns, shared
#: by every call (a decision is frozen, so nothing per arrival is built).
_ADMIT = AdmissionDecision(True)
_SHED_BROWNOUT = AdmissionDecision(False, "brownout")
_SHED_QUEUE_FULL = AdmissionDecision(False, "queue-full")
_SHED_DEADLINE = AdmissionDecision(False, "deadline")


class AdmissionController:
    """Runtime admission state: brownout level + peak-signal accounting.

    One controller serves one run; :meth:`reset` restores the pristine
    state so repeated runs of the same trace replay bit-identically.

    Everything an arrival's decision reads from the policy is resolved
    here once: per class its queue limit, its deadline in ns and the
    brownout level from which it is shed. A class the policy does not
    name takes :data:`DEFAULT_CLASS`'s rule, keeps its own depth and
    stays out of backpressure.
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self.reset()
        # Classes sorted by descending shed priority: level L sheds the
        # first L of them (priority-0 classes never).
        shed_from = {
            cls.name: level
            for level, cls in enumerate(
                sorted(
                    (cls for cls in policy.classes if cls.shed_priority > 0),
                    key=lambda cls: (-cls.shed_priority, cls.name),
                ),
                start=1,
            )
        }
        self._max_level = policy.max_brownout_level
        self._rules = {
            cls.name: (
                cls.queue_limit,
                None if cls.deadline_ms is None else cls.deadline_ms * 1e6,
                shed_from.get(cls.name, self._max_level + 1),
            )
            for cls in policy.classes
        }
        self._default_rule = self._rules[DEFAULT_CLASS]
        self._limits = tuple(
            (cls.name, cls.queue_limit) for cls in policy.classes
        )
        self._enter = policy.brownout_enter
        self._exit = policy.brownout_exit

    def reset(self) -> None:
        self.brownout_level = 0
        self.peak_backpressure = 0.0
        self.max_level_seen = 0
        self.level_changes = 0

    # -- signals -----------------------------------------------------------

    def backpressure(self, backlog, now: float) -> float:
        """Worst per-class queue fullness in [0, 1]: max(depth/limit) over
        the policy's classes, with depths read off ``backlog`` (a
        :class:`~repro.serving.routing.Backlog`) at ``now``."""
        classes = backlog.classes_at(now)
        worst = 0.0
        for name, limit in self._limits:
            finishes = classes.get(name)
            if finishes:
                fullness = len(finishes) / limit
                if fullness > worst:
                    worst = fullness
        return 1.0 if worst > 1.0 else worst

    def update(self, backpressure: float) -> int:
        """Step the brownout level by at most 1 with hysteresis.

        Levels rise at ``brownout_enter`` and fall at ``brownout_exit``;
        the dead band between the two stops the level oscillating when
        the signal hovers near one threshold.
        """
        if backpressure > self.peak_backpressure:
            self.peak_backpressure = backpressure
        level = self.brownout_level
        if backpressure >= self._enter and level < self._max_level:
            level += 1
            self.level_changes += 1
            if level > self.max_level_seen:
                self.max_level_seen = level
        elif backpressure <= self._exit and level > 0:
            level -= 1
            self.level_changes += 1
        self.brownout_level = level
        return level

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
        limit, deadline_ns, shed_level = self._rules.get(
            slo_class, self._default_rule
        )
        if self.brownout_level >= shed_level:
            return _SHED_BROWNOUT
        if depth >= limit:
            return _SHED_QUEUE_FULL
        if (
            deadline_ns is not None
            and predicted_wait_ns + service_ns > deadline_ns
        ):
            return _SHED_DEADLINE
        return _ADMIT

    def admit(
        self,
        slo_class: str,
        backlog,
        now: float,
        predicted_wait_ns: float,
        service_ns: float,
        pressure_floor: float = 0.0,
    ) -> AdmissionDecision:
        """One arrival at ``now`` end to end: backpressure, brownout step,
        decision.

        ``backlog`` (a :class:`~repro.serving.routing.Backlog`) holds the
        finish times of admitted requests per class; the arriving class's
        depth is read off it once the backpressure pass has pruned it to
        ``now``.
        ``pressure_floor`` is an outside brownout driver — the fleet
        passes its power governor's throttle pressure, so a capped fleet
        escalates brownout instead of queueing into SLO misses it cannot
        serve at the throttled rate.
        """
        pressure = self.backpressure(backlog, now)
        self.update(pressure_floor if pressure_floor > pressure else pressure)
        return self.decide(
            slo_class,
            len(backlog.classes.get(slo_class, ())),
            predicted_wait_ns,
            service_ns,
        )
