"""Fleet-level silent-data-corruption defense: detect, audit, contain.

A fleet that trusts every launch result unconditionally serves whatever
a defective core computes. This module adds the three detection layers
hyperscalers run against silent data corruption (SDC), composed into
:class:`~repro.serving.fleet.FleetManager`:

- **ABFT result checking** (``abft``): every served result is checksum-
  verified (see :mod:`repro.engines.abft` for the math). ``strict`` mode
  (row + column checksums) catches every modelled corruption; ``probe``
  mode (Freivalds) is cheaper and catches a configurable
  ``probe_coverage`` fraction. A detection re-executes the request —
  sharing the RAS retry budget, so a persistently corrupting replica
  escalates to a fatal outcome and the existing quarantine machinery.
- **Golden-vector screening** (``screen_interval_ms``): on a cadence,
  idle replicas run ``screen_vectors`` known-input launches whose output
  digests are pinned; any mismatch is a detection. Screens are how a
  fleet finds defective cores that corrupt *rarely* or only off the
  serving path.
- **Sampled dual-execution audit** (``audit_fraction``): a fraction of
  served batches re-runs on a second replica; digest disagreement
  convicts the corrupting side.

Detections feed **containment**: suspected replicas are routed around
(the soft ``suspected`` tier of
:meth:`~repro.serving.routing.FleetRouter.route`), repeat detections
quarantine the replica (through the fleet's normal quarantine -> repair
-> reintegrate lifecycle, where repair probes now include a corruption
screen), and persistent offenders retire.

Every stochastic draw comes from dedicated seed-derived streams
(``sdc:<replica>``, ``screen:<replica>``, ``audit`` — see
:mod:`repro.seeding`), never from the serving streams, so attaching the
tracker with all-zero silent rates leaves request outcomes untouched and
a fleet with no :class:`SdcConfig` at all is byte-identical to a build
without this module.

Accounting is a conserved ledger: every injected corruption event lands
in exactly one bucket — ``detected[abft]``, ``detected[audit]``,
``detected[screen]``, or ``served_corrupted``. A screen that later
convicts a replica resolves previously *served* events for detection-
latency reporting, but never moves them out of the served bucket: a
corrupted answer that reached a client stays counted against the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproRuntimeError, reject_non_finite
from repro.faults.schedule import FaultSchedule
from repro.seeding import derive_rng

__all__ = ["SdcConfig", "SdcTracker"]

ABFT_MODES = ("off", "probe", "strict")
DETECTION_METHODS = ("abft", "audit", "screen")


@dataclass(frozen=True)
class SdcConfig:
    """Detection + containment policy for silent data corruption."""

    abft: str = "off"
    """Result-checking mode applied to every served batch: ``off`` (no
    checking — corrupted results are served), ``probe`` (Freivalds,
    cheap, ``probe_coverage`` detection), ``strict`` (full row+column
    checksums, catches every modelled corruption)."""
    probe_coverage: float = 0.95
    """Probability probe-mode ABFT catches one corrupted result."""
    screen_interval_ms: float | None = None
    """Golden-vector screen cadence over idle replicas (None = no
    screener)."""
    screen_vectors: int = 4
    """Golden test vectors per screened replica per cadence tick."""
    screen_cost_ms: float = 2.0
    """Replica occupancy of one screen (all vectors)."""
    audit_fraction: float = 0.0
    """Fraction of served batches re-executed on a second replica."""
    quarantine_threshold: int = 2
    """Detections on one replica (since its last clean screen or
    repair) that quarantine it."""
    retire_after: int = 6
    """Lifetime detections on one replica that retire it outright —
    the repeat-offender policy."""

    def __post_init__(self) -> None:
        def reject(message: str) -> None:
            raise ReproRuntimeError(f"SdcConfig: {message}")

        reject_non_finite(self)
        if self.abft not in ABFT_MODES:
            reject(f"abft must be one of {ABFT_MODES}, got {self.abft!r}")
        if not 0.0 <= self.probe_coverage <= 1.0:
            reject(f"probe_coverage must be in [0, 1], got {self.probe_coverage}")
        if self.screen_interval_ms is not None and self.screen_interval_ms <= 0:
            reject(
                f"screen_interval_ms must be > 0, got {self.screen_interval_ms}"
            )
        if self.screen_vectors < 1:
            reject(f"screen_vectors must be >= 1, got {self.screen_vectors}")
        if self.screen_cost_ms < 0:
            reject(f"screen_cost_ms must be >= 0, got {self.screen_cost_ms}")
        if not 0.0 <= self.audit_fraction <= 1.0:
            reject(f"audit_fraction must be in [0, 1], got {self.audit_fraction}")
        if self.quarantine_threshold < 1:
            reject(
                f"quarantine_threshold must be >= 1, "
                f"got {self.quarantine_threshold}"
            )
        if self.retire_after < 1:
            reject(f"retire_after must be >= 1, got {self.retire_after}")

    @property
    def checking(self) -> bool:
        return self.abft != "off"


@dataclass
class _ReplicaLedger:
    """Per-replica SDC bookkeeping for one run."""

    lifetime: int = 0
    """Detections attributed to this replica over the whole run."""
    consecutive: int = 0
    """Detections since the last clean screen / successful repair."""
    served: int = 0
    """Corruption events this replica served undetected."""


class SdcTracker:
    """Per-run SDC state machine the fleet drives.

    Built fresh at the top of every :meth:`FleetManager.run` (stream
    positions restart with the run, like every other fleet RNG), it owns
    the corruption draws, the detection ledger, and the containment
    directives; the fleet applies directives because it owns the router,
    the event log and the lifecycle counters.
    """

    def __init__(
        self,
        config: SdcConfig,
        seed: int,
        schedule: FaultSchedule,
        replica_names: list[str],
    ) -> None:
        self.config = config
        self.schedule = schedule
        self._rng_sdc = {
            name: derive_rng(seed, "sdc", name) for name in replica_names
        }
        self._rng_screen = {
            name: derive_rng(seed, "screen", name) for name in replica_names
        }
        self._rng_audit = derive_rng(seed, "audit")
        self.injected = 0
        self.detected = {method: 0 for method in DETECTION_METHODS}
        self.served_corrupted = 0
        self.screens_run = 0
        self.screen_detections = 0
        self.audits_run = 0
        self.audit_detections = 0
        self.sdc_quarantines = 0
        self.sdc_retirements = 0
        self.latencies_ms: list[float] = []
        """Injection-to-detection latency of every *caught* event."""
        self.resolution_latencies_ms: list[float] = []
        """Serve-to-conviction latency of served events a later screen
        attributed — diagnostics for the undefended configurations."""
        self._ledgers: dict[int, _ReplicaLedger] = {}
        self._suspected: set[int] = set()
        self._pending_served: list[tuple[int, float]] = []
        self._actions: list[tuple[int, str]] = []

    # -- draws ----------------------------------------------------------------

    def attempt_corrupted(self, name: str, p_silent: float) -> bool:
        """Did a silent corruption land in this service attempt?

        ``p_silent`` is the attempt's odds (:meth:`FaultPlan.odds`), drawn
        from the replica's dedicated ``sdc`` stream; zero odds consume no
        randomness, so quiet schedules leave every stream untouched.
        """
        if p_silent <= 0.0:
            return False
        if self._rng_sdc[name].random() < p_silent:
            self.injected += 1
            return True
        return False

    def abft_detects(self, name: str) -> bool:
        """Does result checking catch one corrupted result?

        ``strict`` consumes no randomness (it always catches the
        modelled above-tolerance corruptions); ``probe`` draws its
        coverage from the replica's ``sdc`` stream."""
        mode = self.config.abft
        if mode == "strict":
            return True
        if mode == "probe":
            coverage = self.config.probe_coverage
            return coverage > 0.0 and self._rng_sdc[name].random() < coverage
        return False

    def audit_selected(self) -> bool:
        """Is this served batch sampled for dual-execution audit?"""
        fraction = self.config.audit_fraction
        return fraction > 0.0 and self._rng_audit.random() < fraction

    def audit_secondary_corrupted(self, index: int, time_ns: float) -> bool:
        """Did the audit's second execution itself corrupt?

        Drawn from the fleet-level ``audit`` stream (not the secondary's
        serving or sdc streams), so audit load never shifts the primary
        corruption sequence."""
        p_silent = self.schedule.plan_at(time_ns, index).odds()[2]
        if p_silent <= 0.0:
            return False
        if self._rng_audit.random() < p_silent:
            self.injected += 1
            return True
        return False

    # -- ledger ---------------------------------------------------------------

    def _ledger(self, index: int) -> _ReplicaLedger:
        ledger = self._ledgers.get(index)
        if ledger is None:
            ledger = self._ledgers[index] = _ReplicaLedger()
        return ledger

    def note_detection(
        self, index: int, method: str, latency_ms: float = 0.0
    ) -> None:
        """One caught corruption event: bucket it and queue containment."""
        self.detected[method] += 1
        if method == "screen":
            self.screen_detections += 1
        elif method == "audit":
            self.audit_detections += 1
        self.latencies_ms.append(latency_ms)
        ledger = self._ledger(index)
        ledger.lifetime += 1
        ledger.consecutive += 1
        self._suspected.add(index)
        if ledger.lifetime >= self.config.retire_after:
            self._actions.append((index, "retire"))
        elif ledger.consecutive >= self.config.quarantine_threshold:
            self._actions.append((index, "quarantine"))

    def note_served(self, index: int, time_ns: float) -> None:
        """One corruption event reached a client undetected."""
        self.served_corrupted += 1
        self._ledger(index).served += 1
        self._pending_served.append((index, time_ns))

    def screen_replica(self, name: str, index: int, now_ns: float) -> int:
        """Run one golden-vector screen; returns corrupted-vector count.

        Each vector is its own potential corruption event (golden
        outputs are pinned digests, so a corrupt vector is always a
        detection). A fully clean screen *clears* the replica: its
        consecutive-detection count resets and routing stops avoiding
        it. A dirty screen also convicts this replica for every
        corrupted result it previously served (detection-latency
        resolution — the served bucket is not revised).
        """
        rng = self._rng_screen[name]
        p_vector = self.schedule.plan_at(now_ns, index).odds()[2]
        corrupted = 0
        for _vector in range(self.config.screen_vectors):
            if p_vector > 0.0 and rng.random() < p_vector:
                corrupted += 1
                self.injected += 1
                self.note_detection(index, "screen", latency_ms=0.0)
        self.screens_run += 1
        if corrupted:
            kept: list[tuple[int, float]] = []
            for held_index, served_ns in self._pending_served:
                if held_index == index:
                    self.resolution_latencies_ms.append(
                        (now_ns - served_ns) / 1e6
                    )
                else:
                    kept.append((held_index, served_ns))
            self._pending_served = kept
        else:
            self.clear(index)
        return corrupted

    def note_probe_screen_detection(self, index: int) -> None:
        """A repair probe's corruption screen caught the board mid-repair."""
        self.injected += 1
        self.note_detection(index, "screen", latency_ms=0.0)

    def clear(self, index: int) -> None:
        """A clean screen or successful repair: stop avoiding the replica."""
        self._ledger(index).consecutive = 0
        self._suspected.discard(index)

    def take_actions(self) -> list[tuple[int, str]]:
        """Drain queued containment directives (``quarantine``/``retire``)."""
        actions, self._actions = self._actions, []
        return actions

    def suspected_frozen(self) -> frozenset[int]:
        return frozenset(self._suspected)

    # -- reporting ------------------------------------------------------------

    @property
    def max_detection_latency_ms(self) -> float:
        return max(self.latencies_ms, default=0.0)

    def build_section(self) -> dict:
        """The ``sdc`` section of the fleet report (JSON-stable)."""
        total_detected = sum(self.detected.values())
        return {
            "abft_mode": self.config.abft,
            "injected": self.injected,
            "detected": {
                method: self.detected[method]
                for method in DETECTION_METHODS
            },
            "detected_total": total_detected,
            "served_corrupted": self.served_corrupted,
            "screens_run": self.screens_run,
            "screen_detections": self.screen_detections,
            "audits_run": self.audits_run,
            "audit_detections": self.audit_detections,
            "quarantines": self.sdc_quarantines,
            "retirements": self.sdc_retirements,
            "max_detection_latency_ms": self.max_detection_latency_ms,
            "max_resolution_latency_ms": max(
                self.resolution_latencies_ms, default=0.0
            ),
            "suspected_final": sorted(self._suspected),
            "devices": {
                f"r{index}": {
                    "detections": ledger.lifetime,
                    "served_corrupted": ledger.served,
                }
                for index, ledger in sorted(self._ledgers.items())
            },
        }

