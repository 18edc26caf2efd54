"""The accelerator facade: one simulated Cloudblazer card.

:class:`Accelerator` assembles the full SoC of Fig. 2 — clusters of
processing groups over a shared L3 — plus the chip-wide power machinery
(CPME, per-core DVFS governor) on a single simulator instance. It is the
object the runtime executes compiled models against, and the top of the
library's public API:

>>> from repro.core.accelerator import Accelerator
>>> card = Accelerator.cloudblazer_i20()
>>> card.chip.total_cores
24
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.config import ChipConfig, FeatureFlags, dtu1_config, dtu2_config
from repro.core.errors import ReproRuntimeError
from repro.core.processing_group import ProcessingGroup, build_group
from repro.core.resource import GroupId, ResourceManager
from repro.memory.hierarchy import MemoryLevel
from repro.power.cpme import Cpme
from repro.power.dvfs import DvfsController
from repro.power.model import DvfsCurve, UnitPowerModel, chip_power_units
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace


@dataclass
class Accelerator:
    """A simulated accelerator card (DTU + HBM + power management)."""

    chip: ChipConfig
    sim: Simulator = field(default_factory=Simulator)
    trace: Trace = field(default_factory=Trace)
    groups: list[ProcessingGroup] = field(default_factory=list)
    l3: MemoryLevel | None = None
    resources: ResourceManager | None = None
    cpme: Cpme | None = None
    dvfs: DvfsController | None = None
    power_units: dict[str, UnitPowerModel] = field(default_factory=dict)
    faults: "object | None" = None
    """FaultInjector driving an active campaign (see :meth:`attach_faults`)."""
    obs: "object | None" = None
    """Observability hub receiving spans/metrics (see :meth:`attach_observability`)."""
    launch_paths: Counter = field(default_factory=Counter)
    """Launches run on this card per executor path: ``"closed_form"``
    (kernel steps computed directly) or ``"event"`` (per-group processes)."""

    def __post_init__(self) -> None:
        if self.groups:
            return
        self.l3 = MemoryLevel(self.sim, self.chip.l3, name="L3")
        self.resources = ResourceManager(self.chip)
        for group_id in self.resources.all_groups():
            self.groups.append(
                build_group(self.sim, self.chip, group_id, trace=self.trace)
            )
        curve = DvfsCurve(
            f_min_ghz=self.chip.base_clock_ghz, f_max_ghz=self.chip.max_clock_ghz
        )
        self.power_units = chip_power_units(
            cores=self.chip.total_cores,
            dma_engines=self.chip.total_groups,
            tdp_watts=self.chip.tdp_watts,
            curve=curve,
        )
        self.cpme = Cpme(power_limit_watts=self.chip.tdp_watts)
        self.cpme.register_units(self.power_units)
        self.dvfs = DvfsController(
            curve=curve, enabled=self.chip.features.power_management
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def cloudblazer_i20(cls, features: FeatureFlags | None = None) -> "Accelerator":
        """The paper's flagship: DTU 2.0 on a Cloudblazer i20 card."""
        return cls(chip=dtu2_config(features))

    @classmethod
    def cloudblazer_i10(cls) -> "Accelerator":
        """The predecessor: DTU 1.0 on a Cloudblazer i10 card."""
        return cls(chip=dtu1_config())

    @classmethod
    def by_name(cls, name: str) -> "Accelerator":
        """A fresh card by product name (``"i20"`` or ``"i10"``)."""
        if name == "i20":
            return cls.cloudblazer_i20()
        if name == "i10":
            return cls.cloudblazer_i10()
        raise ReproRuntimeError(f"unknown device {name!r}")

    # -- fault injection ------------------------------------------------------

    def attach_faults(self, injector) -> None:
        """Wire a :class:`~repro.faults.FaultInjector` into every hook point.

        Propagates the injector to each group's DMA engine, L2 slice and
        synchronization engine, plus the shared L3 — the components then
        draw faults at their natural event granularity. Pass ``None`` to
        detach and restore the bit-identical fault-free timing path.
        """
        self.faults = injector
        self.l3.faults = injector
        for group in self.groups:
            group.dma.faults = injector
            group.sync.faults = injector
            group.l2.level.faults = injector

    # -- observability ------------------------------------------------------

    def attach_observability(self, obs) -> None:
        """Wire an :class:`~repro.obs.Observability` hub into the card.

        The executor and runtime then report spans and metrics for every
        launch (simulator engine intervals, kernel timings, fault events,
        power samples). Pass ``None`` to detach; with no hub attached every
        reporting hook is skipped and timing is bit-identical.
        """
        self.obs = obs

    # -- convenience --------------------------------------------------------

    def group(self, group_id: GroupId) -> ProcessingGroup:
        for candidate in self.groups:
            if candidate.group_id == group_id:
                return candidate
        raise KeyError(f"no group {group_id}")

    @property
    def clock_ghz(self) -> float:
        """Current compute-core clock, governed by DVFS when enabled."""
        if self.dvfs is not None and self.chip.features.power_management:
            return self.dvfs.f_ghz
        return self.chip.max_clock_ghz
