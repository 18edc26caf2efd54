"""The execution engine: compiled kernels on the simulated accelerator.

This is where all the substrates meet. For each kernel, on each assigned
processing group:

1. the instruction buffer is consulted (cache hit / prefetch / miss stall),
   and a prefetch for the *next* kernel is issued (§IV-B);
2. the group's DMA engine pulls the kernel's share of inputs + weights from
   L3 — weights go through one hardware broadcast per cluster when several
   groups share them (§IV-C); sparse activations travel compressed when the
   chip supports it; repeat mode collapses the tiling plan's N transactions
   into one configuration (Fig. 6);
3. compute proceeds overlapped with the remaining DMA (double buffering:
   makespan is max(compute, dma) plus the first-tile prologue);
4. groups rendezvous through the synchronization engine before the next
   kernel.

What every launch of a model on a given slice size shares — DMA bytes,
compute time per clock, labels, the route check — is computed once in a
:class:`LaunchPlan` (see docs/sim-internals.md, "The launch hot path").

A power-manager process samples fixed observation windows, feeding measured
core/DMA duty cycles to the CPME/LPMEs (power integrity) and the DVFS
governor (energy efficiency), whose frequency choice changes the compute
time of subsequent kernels — the closed loop of Fig. 10. Energy integrates
the unit power models over every window.

A single-job launch that no fault can touch computes each kernel step's
timeline directly (:class:`_ClosedFormLaunch`) instead of running one
process per group, DMA and port; the power manager still runs every window
in the simulator. Everything else takes the event path, which stays the
oracle the closed form is held equal to (docs/sim-internals.md,
"Closed-form launch").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from repro.compiler.kernel import Kernel
from repro.compiler.lowering import CompiledModel
from repro.core.accelerator import Accelerator
from repro.core.config import ChipConfig
from repro.core.errors import ReproRuntimeError
from repro.core.processing_group import ProcessingGroup
from repro.core.resource import Assignment
from repro.dma.engine import check_route
from repro.faults.plan import (
    ECC_RETRY_NS,
    RATE_FIELDS,
    SYNC_TIMEOUT_NS,
    WATCHDOG_TIMEOUT_NS,
)
from repro.power.dvfs import Observation
from repro.sim.kernel import AllOf, Timeout
from repro.sync.events import Barrier

#: sustained fraction of peak the compute engines reach per kernel category
#: (vector/matrix pipelines never hit 100 % of the datasheet number)
DTU_CATEGORY_EFFICIENCY = {
    "conv": 0.82,
    "gemm": 0.80,
    "elementwise": 0.55,
    "activation": 0.55,
    "norm": 0.50,
    "softmax": 0.45,
    "pool": 0.55,
    "reduce": 0.50,
    "layout": 0.90,
    "embedding": 0.35,
    "sort": 0.50,
}

#: bitmask sparse format overhead: 1 mask bit per element; at FP16 that is
#: 1/16 of the dense payload (see repro.dma.sparse)
_SPARSE_MASK_FRACTION = 1.0 / 16.0

#: dynamic-power fraction a core burns while stalled (clock tree, issue
#: logic) relative to full activity — imperfect clock gating
_STALL_CLOCK_ACTIVITY = 0.60


class ComputeThroughputError(ReproRuntimeError):
    """A kernel's compute engines would run at zero throughput."""


def kernel_compute_ns(
    chip: ChipConfig,
    kernel: Kernel,
    cores: int,
    clock_ghz: float,
    num_groups: int = 1,
) -> float:
    """Time one group needs for its 1/num_groups share of the kernel."""
    if kernel.cost.flops <= 0:
        return 0.0
    rate = chip.core_flops_per_ns(kernel.dtype, clock_ghz) * cores
    efficiency = DTU_CATEGORY_EFFICIENCY.get(kernel.category, 0.5)
    if kernel.tensorization is not None:
        efficiency *= kernel.tensorization.utilization
    effective = rate * efficiency
    if effective <= 0:
        raise ComputeThroughputError(
            f"kernel {kernel.name}: zero compute throughput"
        )
    return kernel.cost.flops / num_groups / effective


def kernel_wire_bytes(chip: ChipConfig, kernel: Kernel, activation_bytes: int) -> int:
    """Bytes activations occupy on the L3 wire, after sparse compression."""
    if not chip.features.sparse_dma or kernel.sparsity <= 0.0:
        return activation_bytes
    dense_kept = 1.0 - kernel.sparsity
    compressed = activation_bytes * (dense_kept + _SPARSE_MASK_FRACTION)
    return min(activation_bytes, int(compressed))


class KernelStep:
    """One kernel's launch-invariant DMA numbers on a ``num_groups`` slice.

    ``dma_bytes`` is what every group pulls from L3 into its own L2: its
    activation share after sparse compression, plus the weights unless
    ``broadcast`` — then the weight leader also broadcasts
    ``kernel.cost.weight_bytes`` to its whole cluster in one pass.
    """

    __slots__ = ("kernel", "dma_bytes", "broadcast", "configurations", "weights_label")

    def __init__(self, chip: ChipConfig, kernel: Kernel, num_groups: int) -> None:
        cost = kernel.cost
        share = (
            kernel_wire_bytes(chip, kernel, cost.input_bytes // num_groups)
            + cost.output_bytes // num_groups
        )
        self.kernel = kernel
        self.broadcast = chip.features.l2_broadcast and num_groups > 1
        self.dma_bytes = share if self.broadcast else share + cost.weight_bytes
        self.configurations = (
            1 if kernel.tiling is None else kernel.tiling.dma_configurations
        )
        self.weights_label = f"{kernel.name}.weights"


class LaunchPlan:
    """The launch-invariant half of running one model on one slice size.

    The ngraph ``Evaluator`` split: everything that depends only on
    (compiled model, chip, group count) — per-kernel DMA bytes and the
    weight-leader split, DMA configuration counts, label strings, the
    L3 -> L2 route check and compute time per DVFS clock — is computed
    once here and reused by every launch. A plan holds numbers, strings
    and the model's own kernels, never a device object: broadcast
    destinations and trace-engine names are resolved per launch, so a
    plan cached on a shared ``CompiledModel`` keeps no card alive.
    """

    __slots__ = ("chip", "num_groups", "steps", "_compute", "_barrier_names")

    def __init__(self, compiled: CompiledModel, chip: ChipConfig, num_groups: int) -> None:
        check_route("L3", "L2", chip.features.direct_l1_l3_dma)
        self.chip = chip
        self.num_groups = num_groups
        self.steps = [
            KernelStep(chip, kernel, num_groups) for kernel in compiled.kernels
        ]
        #: clock -> per-kernel compute ns, filled as kernels run at it
        self._compute: dict[float, list] = {}
        #: barrier-name prefix -> per-kernel barrier names
        self._barrier_names: dict[str, list[str]] = {}

    def compute_ns(self, index: int, clock_ghz: float) -> float:
        """Compute time of kernel ``index`` at ``clock_ghz`` (memoised)."""
        row = self._compute.get(clock_ghz)
        if row is None:
            row = self._compute[clock_ghz] = [None] * len(self.steps)
        compute = row[index]
        if compute is None:
            compute = row[index] = kernel_compute_ns(
                self.chip, self.steps[index].kernel, self.chip.cores_per_group,
                clock_ghz, self.num_groups,
            )
        return compute

    def barrier_names(self, label: str) -> list[str]:
        names = self._barrier_names.get(label)
        if names is None:
            names = self._barrier_names[label] = [
                f"{label}.{step.kernel.name}.sync" for step in self.steps
            ]
        return names


def launch_plan(compiled: CompiledModel, chip: ChipConfig, num_groups: int) -> LaunchPlan:
    """The model's plan for ``num_groups`` groups of ``chip``, built once."""
    plans = compiled.launch_plans.setdefault(num_groups, [])
    for plan in plans:  # ChipConfig holds a dict, so it cannot be a key
        if plan.chip is chip or plan.chip == chip:
            return plan
    plan = LaunchPlan(compiled, chip, num_groups)
    plans.append(plan)
    return plan


class _Lane:
    """One processing group's per-launch handles (resolved, never cached)."""

    __slots__ = (
        "group", "icache", "dma", "sync", "l2_level", "destinations",
        "icache_engine", "core_engine", "stall_engine",
    )

    def __init__(self, accelerator: Accelerator, group: ProcessingGroup) -> None:
        name = group.name
        cluster = group.group_id.cluster
        self.group = group
        self.icache = group.icaches[0]
        self.dma = group.dma
        self.sync = group.sync
        self.l2_level = group.l2.level
        self.destinations = [
            other.l2.level
            for other in accelerator.groups
            if other.group_id.cluster == cluster
        ]
        self.icache_engine = f"icache.{name}"
        self.core_engine = f"core.{name}"
        self.stall_engine = f"stall.{name}"


@dataclass
class KernelTiming:
    """Measured timeline of one kernel execution."""

    name: str
    category: str
    start_ns: float
    end_ns: float
    compute_ns: float
    dma_ns: float
    icache_stall_ns: float
    sync_ns: float
    clock_ghz: float

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class ExecutionResult:
    """Everything one model run produced."""

    latency_ns: float
    energy_joules: float
    kernel_timings: list[KernelTiming]
    mean_power_watts: float
    mean_frequency_ghz: float
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return self.latency_ns / 1e6

    def throughput_samples_per_s(self, batch: int = 1) -> float:
        if self.latency_ns == 0:
            return float("inf")
        return batch * 1e9 / self.latency_ns


class _Transfer:
    """One DMA transaction of a closed-form kernel step.

    Starting one charges its configuration to the engine's stats, as the
    transaction's first wakeup does. ``request``, ``release`` and
    ``finish`` are the queue keys of the wakeups that request the L3
    port, release it and complete the transaction; ``wake`` is the index
    at which the completing wakeup schedules its group (1 when that
    wakeup first handed the port to the next request).
    """

    __slots__ = (
        "dma", "label", "nbytes", "destinations", "start", "ready",
        "request", "read_end", "release", "end", "finish", "wake",
    )

    def __init__(
        self, dma, label: str, nbytes: int, destinations: list,
        configurations: int, start: float, spawned: tuple,
    ) -> None:
        config_time = configurations * dma.config_overhead_ns
        stats = dma.stats
        stats.configurations += configurations
        stats.config_time_ns += config_time
        self.dma = dma
        self.label = label
        self.nbytes = nbytes
        self.destinations = destinations
        self.start = start
        self.ready = ready = start + config_time
        self.request = (ready, spawned, 0)
        self.wake = 0


_KEY = itemgetter(0)
_REQUEST = attrgetter("request")
_FINISH = attrgetter("finish")


class _ClosedFormLaunch:
    """A single-job launch whose kernel steps are computed, not simulated.

    The power manager calls :meth:`advance` at every window, before it
    reads the trace. ``advance`` computes the kernel steps whose clock
    read comes before that window, records the trace intervals the event
    path would have recorded by then, and says when the job is done.

    A step follows ``_run_kernel_on_group`` on every lane: the icache
    fetch and prefetch in lane order, then the DMA configuration time,
    the single L3 port granted first come first served, the L2 writes
    (free ports: the closed form runs only where they never queue), the
    compute timer, the sync latency and the barrier.

    Order. The event queue breaks a tie in time by the order in which
    the tied wakeups were scheduled, and each is scheduled by another
    wakeup. So a wakeup's place in the queue is the nested key ``(time,
    key of the wakeup that scheduled it, index among the wakeups that
    one scheduled)``, and Python compares these tuples exactly as the
    queue dispatches. The closed form builds the keys of the wakeups that
    decide something (L3 requests and releases, DMA completions against
    their writes, the last of a group's waits, barrier arrivals, trace
    records) and of the power manager's windows, with no tie rule of its
    own to get wrong.
    """

    def __init__(
        self, accelerator: Accelerator, compiled: CompiledModel,
        groups: list[ProcessingGroup], timings: dict, start: float,
    ) -> None:
        self.accelerator = accelerator
        self.plan = launch_plan(compiled, accelerator.chip, len(groups))
        lanes = [_Lane(accelerator, group) for group in groups]
        self.lanes = [
            (
                lane.icache, lane.icache_engine, lane.core_engine,
                lane.stall_engine, lane.dma, [lane.l2_level],
                lane.destinations, lane.sync.latency_ns,
            )
            for lane in lanes
        ]
        kernels = compiled.kernels
        self.following = list(kernels[1:]) + [None]
        self.steps = len(kernels)
        self.timings = timings
        self.trace = accelerator.trace
        self.l3 = accelerator.l3
        self.index = 0
        #: trace records computed but not yet due, as (key, engine, label,
        #: start, end) in dispatch order
        self.pending: deque = deque()
        # The event path's first wakeups: the supervisor (key (start, (),
        # 0)) spawns the model process; the power manager is spawned
        # second, so its first dispatch is (start, (), 1).
        self.now = start
        self.model = (start, (start, (), 0), 0)
        self.window = (start, (), 1)

    def advance(self, window_end: float) -> float | None:
        """Bring the launch up to the power manager's wakeup at ``window_end``.

        Returns the job's end time once the job is done by that wakeup.
        """
        window = self.window = (window_end, self.window, 0)
        steps = self.steps
        # A step's groups read the clock at their first wakeup, key
        # (start, model, position); position 0 comes first.
        while self.index < steps and (self.now, self.model, 0) < window:
            self._step()
        pending = self.pending
        record = self.trace.record
        while pending and pending[0][0] < window:
            _key, engine, label, start, end = pending.popleft()
            record(engine, label, start, end)
        # The finished model process wakes the supervisor, key (end,
        # model, 0), which marks the job done.
        if self.index == steps and (self.now, self.model, 0) < window:
            return self.now
        return None

    def _step(self) -> None:
        index = self.index
        plan = self.plan
        step = plan.steps[index]
        kernel = step.kernel
        name = kernel.name
        code_bytes = kernel.code_bytes
        following = self.following[index]
        clock = self.accelerator.clock_ghz
        compute = plan.compute_ns(index, clock)
        now = self.now
        model = self.model
        broadcast = step.broadcast
        dma_bytes = step.dma_bytes
        records = []
        transfers = []
        groups = []

        # 1. Each group's first wakeup, in lane order: fetch, prefetch,
        # the icache stall, then the DMA spawns and the compute timer.
        for position, lane in enumerate(self.lanes):
            icache, icache_engine, _core, _stall, dma, own_level, cluster, _ = lane
            first = (now, model, position)
            stall = icache.fetch(name, code_bytes, now).stall_ns
            if following is not None:
                icache.prefetch(following.name, following.code_bytes, now)
            if stall > 0:
                start = now + stall
                records.append((first, icache_engine, name, now, start))
                spawner = (start, first, 0)
            else:
                start = now
                spawner = first
            own = []
            if broadcast and position == 0:
                own.append(_Transfer(
                    dma, step.weights_label, kernel.cost.weight_bytes, cluster,
                    1, start, (start, spawner, 0),
                ))
            if dma_bytes > 0:
                own.append(_Transfer(
                    dma, name, dma_bytes, own_level, step.configurations, start,
                    (start, spawner, len(own)),
                ))
            transfers += own
            compute_end = start + compute
            groups.append(
                (lane, start, stall, compute_end, (compute_end, spawner, len(own)), own)
            )

        # 2. The L3 port, first come first served. A request finding the
        # port free reads at once (its release is scheduled by the request
        # itself, after the writes it spawned); otherwise the previous
        # holder's release grants it.
        if len(transfers) > 1:
            transfers.sort(key=_REQUEST)
        l3 = self.l3
        previous = None
        for transfer in transfers:
            nbytes = transfer.nbytes
            request = transfer.request
            if previous is None or previous.release < request:
                granted = transfer.ready
                scheduler = request
                pushed = len(transfer.destinations)
            else:
                previous.wake = 1
                granted = previous.read_end
                scheduler = (granted, previous.release, 0)
                pushed = 0
            transfer.read_end = read_end = granted + l3.transfer_time_ns(nbytes)
            transfer.release = (read_end, scheduler, pushed)
            l3.bytes_transferred += nbytes
            previous = transfer

        # 3. The L2 writes: the transfer completes in its release wakeup
        # when they finished first, else in the last write's wakeup.
        for transfer in transfers:
            nbytes = transfer.nbytes
            destinations = transfer.destinations
            ready = transfer.ready
            written = ready + destinations[0].transfer_time_ns(nbytes)
            last_write = (
                written, (ready, transfer.request, len(destinations) - 1), 0
            )
            if last_write < transfer.release:
                transfer.finish = transfer.release
                transfer.end = transfer.read_end
            else:
                transfer.finish = (written, last_write, 0)
                transfer.end = written
                transfer.wake = 0
            for level in destinations:
                level.bytes_transferred += nbytes
        if len(transfers) > 1:
            transfers.sort(key=_FINISH)
        for transfer in transfers:
            dma = transfer.dma
            stats = dma.stats
            nbytes = transfer.nbytes
            stats.transactions += 1
            stats.bytes_moved += nbytes * len(transfer.destinations)
            stats.wire_bytes += nbytes
            stats.busy_time_ns += transfer.end - transfer.start
            records.append(
                (transfer.finish, dma.name, transfer.label, transfer.start,
                 transfer.end)
            )

        # 4. Each group wakes when the last of its waits fires, records
        # its core (and stall) interval and arrives at the barrier.
        arrivals = []
        for lane, start, stall, compute_end, timer, own in groups:
            fired, pushed, woke = timer, 0, compute_end
            for transfer in own:
                if transfer.finish > fired:
                    fired, pushed, woke = transfer.finish, transfer.wake, transfer.end
            resumed = (woke, fired, pushed)
            records.append((resumed, lane[2], name, start, compute_end))
            if woke > compute_end:
                records.append((resumed, lane[3], name, compute_end, woke))
            arrivals.append(((woke + lane[7], resumed, 0), start, stall, woke))

        # 5. The barrier releases the groups in arrival order; the last
        # arrival resumes last, and the model process after it. Only the
        # first arrival's timing is kept: it is the one per kernel name
        # that _collect and the obs bridge read.
        arrivals.sort(key=_KEY)
        last = arrivals[-1][0]
        end = last[0]
        parties = len(arrivals)
        if parties > 1:
            last = (end, last, parties - 1)
        _key, start, stall, woke = arrivals[0]
        self.timings.setdefault(name, []).append(
            KernelTiming(
                name=name,
                category=kernel.category,
                start_ns=now,
                end_ns=end,
                compute_ns=compute,
                dma_ns=woke - start,
                icache_stall_ns=stall,
                sync_ns=end - woke,
                clock_ghz=clock,
            )
        )
        records.sort(key=_KEY)
        self.pending.extend(records)
        self.now = end
        self.model = (end, last, 0)
        self.index = index + 1


class Executor:
    """Runs compiled models on one accelerator instance."""

    def __init__(
        self,
        accelerator: Accelerator,
        window_ns: float = 15_000.0,
    ) -> None:
        self.accelerator = accelerator
        self.window_ns = window_ns
        self._finished = False
        self._energy_joules = 0.0
        self._power_samples: list[float] = []
        self._power_timeline: list[tuple[float, float]] = []
        #: parent span for observability (set by Device.launch when an
        #: Observability hub is attached to the accelerator)
        self.trace_ctx = None

    # -- per-group kernel process ---------------------------------------------

    def _lanes(self, groups: list[ProcessingGroup]) -> list[_Lane]:
        return [_Lane(self.accelerator, group) for group in groups]

    def _run_kernel_on_group(
        self,
        plan: LaunchPlan,
        index: int,
        next_kernel: Kernel | None,
        lane: _Lane,
        barrier: Barrier,
        weight_leader: bool,
        timings: dict,
    ):
        accelerator = self.accelerator
        sim = accelerator.sim
        start = sim.now
        clock = accelerator.clock_ghz
        injector = accelerator.faults

        # A fatal fault queued earlier in this launch: the launch is dead,
        # so fast-forward — arrive at the barrier with no work so sibling
        # groups drain cleanly (no dangling ports or barriers), and let
        # run_concurrent raise the typed fault once the simulation ends.
        if injector is not None and injector.fatal_pending:
            yield barrier.arrive()
            return

        step = plan.steps[index]
        kernel = step.kernel
        name = kernel.name
        trace = accelerator.trace

        # 1. Instruction buffer: fetch this kernel, prefetch the next.
        icache = lane.icache
        fetch = icache.fetch(name, kernel.code_bytes, start)
        if next_kernel is not None:
            icache.prefetch(next_kernel.name, next_kernel.code_bytes, start)
        if fetch.stall_ns > 0:
            trace.record(lane.icache_engine, name, start, start + fetch.stall_ns)
            yield Timeout(fetch.stall_ns)

        # 2. DMA: this group's share of activations, plus weights unless
        # the weight leader broadcasts them (the plan holds the bytes and
        # the checked L3 -> L2 route).
        compute_ns = plan.compute_ns(index, clock)
        if injector is not None:
            # Hang -> the group burns the watchdog window and the launch is
            # declared dead; slowdown -> derated compute time this kernel.
            compute_ns = injector.perturb_compute(
                name, lane.group.name, compute_ns, sim.now
            )
            # Silent corruption: wrong numbers, no error signal — timing
            # is untouched and nothing raises; only a detected=False
            # record marks that this kernel's output is wrong.
            injector.silent_compute(name, lane.group.name, sim.now)

        dma_start = sim.now
        l3 = accelerator.l3
        waits = []
        if step.broadcast and weight_leader:
            waits.append(
                sim.spawn(
                    lane.dma.transfer_checked(
                        kernel.cost.weight_bytes,
                        l3,
                        lane.destinations,
                        configurations=1,
                        hardware_broadcast=True,
                        label=step.weights_label,
                    )
                ).done_event
            )
        dma_bytes = step.dma_bytes
        if dma_bytes > 0:
            waits.append(
                sim.spawn(
                    lane.dma.transfer_checked(
                        dma_bytes,
                        l3,
                        [lane.l2_level],
                        configurations=step.configurations,
                        wire_bytes=dma_bytes,
                        label=name,
                    )
                ).done_event
            )

        # 3. Compute overlapped with DMA (double buffering). Compute has no
        # cross-resource interaction, so it is a bare timer event rather
        # than a spawned process — same completion time, two fewer event
        # dispatches per kernel per group.
        compute_start = sim.now
        compute_end = compute_start + compute_ns
        waits.append(sim.timer(compute_ns))
        yield AllOf(waits)
        dma_ns = sim.now - dma_start
        trace.record(lane.core_engine, name, compute_start, compute_end)
        # LPME event counters (§IV-F): time the core spent stalled waiting
        # for L3-bound DMA after its compute share finished. This is the
        # "ratio of DMA stalls" signal the DVFS loop classifies on.
        if sim.now > compute_end:
            trace.record(lane.stall_engine, name, compute_end, sim.now)

        # 4. Rendezvous with sibling groups before the next kernel (through
        # the sync engine, so lost-event faults take its timeout path).
        sync_start = sim.now
        yield from lane.sync.arrive(barrier)
        sync_ns = sim.now - sync_start

        timings.setdefault(name, []).append(
            KernelTiming(
                name=name,
                category=kernel.category,
                start_ns=start,
                end_ns=sim.now,
                compute_ns=compute_ns,
                dma_ns=dma_ns,
                icache_stall_ns=fetch.stall_ns,
                sync_ns=sync_ns,
                clock_ghz=clock,
            )
        )

    # -- power manager ----------------------------------------------------------

    def _power_manager(self, advance=None):
        """Process: the power loop, one observation window per wakeup.

        ``advance`` (a closed-form launch's) is called at each wakeup
        before the window reads the trace; it returns the job's end time
        once the job is done.
        """
        accelerator = self.accelerator
        sim = accelerator.sim
        trace = accelerator.trace
        chip = accelerator.chip
        cpme = accelerator.cpme
        dvfs = accelerator.dvfs
        group_names = [group.name for group in accelerator.groups]
        num_groups = len(group_names)
        cores_per_group = chip.cores_per_group
        window_ns = self.window_ns
        busy_in = trace.busy_time

        # Window-invariant lookups, hoisted: engine/unit key strings and the
        # core-index -> group-index map never change across windows.
        core_engines = [f"core.{name}" for name in group_names]
        dma_engines = [f"dma.{name}" for name in group_names]
        stall_engines = [f"stall.{name}" for name in group_names]
        core_group = [
            min(index // cores_per_group, num_groups - 1)
            for index in range(chip.total_cores)
        ]
        dma_group = [
            min(index, num_groups - 1) for index in range(chip.total_groups)
        ]
        # Each unit's activity, in CPME registration order, is one entry of
        # the per-window source row [group activities | DMA activities |
        # hbm, fabric, idle]; cores run at the DVFS clock, every other unit
        # at its own curve's f_max.
        sources = {f"core{index}": group for index, group in enumerate(core_group)}
        sources.update(
            (f"dma{index}", num_groups + group)
            for index, group in enumerate(dma_group)
        )
        sources["hbm"] = 2 * num_groups
        sources["fabric"] = 2 * num_groups + 1
        unit_names = list(cpme.lpmes)
        unit_source = [sources.get(name, 2 * num_groups + 2) for name in unit_names]
        is_core = [name.startswith("core") for name in unit_names]
        f_max = [
            cpme.lpmes[name].unit_model.curve.f_max_ghz for name in unit_names
        ]
        frequencies_at: dict[float, list[float]] = {}

        while not self._finished:
            window_start = sim.now
            yield Timeout(window_ns)
            window_end = sim.now
            if advance is not None:
                main_end = advance(window_end)
                if main_end is not None:
                    self._finished = True
                    self._main_end = main_end
            if self._finished:
                # Clamp the last window to the workload's actual end so the
                # idle tail is neither billed for energy nor latency.
                window_end = min(window_end, self._main_end)
            span = window_end - window_start
            if span <= 0:
                break

            # One trace query per recorded engine per window: utilization
            # is busy_time / span by definition, so derive it instead of
            # asking the trace twice (identical float division). An engine
            # that never recorded an interval is idle (0.0) unasked.
            recorded = trace.engines()
            core_busy = [
                busy_in(engine, window_start, window_end)
                if engine in recorded else 0.0
                for engine in core_engines
            ]
            dma_busy = [
                busy_in(engine, window_start, window_end)
                if engine in recorded else 0.0
                for engine in dma_engines
            ]
            stall_busy = [
                busy_in(engine, window_start, window_end)
                if engine in recorded else 0.0
                for engine in stall_engines
            ]
            core_utils = [busy / span for busy in core_busy]
            dma_utils = [busy / span for busy in dma_busy]
            stall_utils = [busy / span for busy in stall_busy]
            mean_core = sum(core_utils) / num_groups
            mean_dma = sum(dma_utils) / num_groups

            # DVFS loop: Observation -> Evaluation -> Decision -> Action.
            # LPMEs report event time, not wall-clock: of the cycles spent
            # inside kernels, how many computed vs stalled on L3-bound DMA.
            busy_time = sum(core_busy)
            stall_time = sum(stall_busy)
            in_kernel = busy_time + stall_time
            if in_kernel > 0:
                dvfs.update(
                    Observation(
                        busy_ratio=min(1.0, busy_time / in_kernel),
                        dma_stall_ratio=min(1.0, stall_time / in_kernel),
                    )
                )

            # Power integrity: LPMEs observe, CPME redistributes budget.
            # A stalled core is not free: its clock tree and issue pipeline
            # keep toggling while it waits on DMA, so stalled time counts as
            # partial activity — the power DVFS reclaims by downclocking
            # bandwidth-bound phases.
            group_activity = [
                min(
                    1.0,
                    core_utils[index]
                    + _STALL_CLOCK_ACTIVITY * stall_utils[index],
                )
                for index in range(num_groups)
            ]
            row = group_activity + [min(1.0, util) for util in dma_utils]
            row += (min(1.0, mean_dma), min(1.0, (mean_core + mean_dma) / 2), 0.0)
            activities = [row[index] for index in unit_source]
            clock = accelerator.clock_ghz
            frequencies = frequencies_at.get(clock)
            if frequencies is None:
                frequencies = frequencies_at[clock] = [
                    clock if core else top for core, top in zip(is_core, f_max)
                ]
            reports = cpme.run_window(activities, frequencies, span)

            # chip_power_watts(units, activities, frequencies) walks the
            # same units in the same order with the same activities and
            # frequencies the LPMEs just observed, so the chip draw is
            # exactly the left-to-right sum of the projections already in
            # the window reports.
            power = 0.0
            for report in reports.values():
                power += report.projected_watts
            self._power_samples.append(power)
            self._power_timeline.append((window_end, power))
            self._energy_joules += power * span * 1e-9

    # -- top level ------------------------------------------------------------

    def run(
        self,
        compiled: CompiledModel,
        num_groups: int | None = None,
        tenant: str = "default",
    ) -> ExecutionResult:
        """Execute ``compiled`` once; returns latency/energy/timelines."""
        accelerator = self.accelerator
        if num_groups is None:
            num_groups = accelerator.chip.groups_per_cluster
        assignment = accelerator.resources.assign(tenant, num_groups)
        try:
            return self.run_on(compiled, assignment)
        finally:
            accelerator.resources.release(tenant)

    def _model_process(
        self,
        compiled: CompiledModel,
        groups: list[ProcessingGroup],
        timings: dict,
        completions: dict[str, float],
        label: str,
    ):
        """Generator: run one compiled model's kernels on its group slice."""
        sim = self.accelerator.sim
        parties = len(groups)
        plan = launch_plan(compiled, self.accelerator.chip, parties)
        lanes = self._lanes(groups)
        barrier_names = plan.barrier_names(label)
        kernels = compiled.kernels
        last = len(kernels) - 1
        for index, barrier_name in enumerate(barrier_names):
            next_kernel = kernels[index + 1] if index < last else None
            barrier = Barrier(sim, parties=parties, name=barrier_name)
            processes = [
                sim.spawn(
                    self._run_kernel_on_group(
                        plan,
                        index,
                        next_kernel,
                        lane,
                        barrier,
                        weight_leader=(position == 0),
                        timings=timings,
                    )
                )
                for position, lane in enumerate(lanes)
            ]
            if parties == 1:
                yield processes[0]
            else:
                yield AllOf([process.done_event for process in processes])
        completions[label] = sim.now

    def _collect(
        self,
        compiled: CompiledModel,
        groups: list[ProcessingGroup],
        timings: dict,
        latency_ns: float,
    ) -> ExecutionResult:
        flat_timings = [
            timing
            for kernel in compiled.kernels
            for timing in timings.get(kernel.name, [])[:1]
        ]
        mean_power = (
            sum(self._power_samples) / len(self._power_samples)
            if self._power_samples
            else 0.0
        )
        counters = {
            "icache_hits": sum(g.icaches[0].hits for g in groups),
            "icache_misses": sum(g.icaches[0].misses for g in groups),
            "icache_prefetch_hits": sum(g.icaches[0].prefetch_hits for g in groups),
            "dma_configurations": sum(g.dma.stats.configurations for g in groups),
            "dma_bytes": sum(g.dma.stats.bytes_moved for g in groups),
            "dma_wire_bytes": sum(g.dma.stats.wire_bytes for g in groups),
        }
        if self.accelerator.faults is not None:
            counters["dma_replays"] = sum(g.dma.stats.replays for g in groups)
            counters["sync_lost_events"] = sum(
                g.sync.stats.lost_events for g in groups
            )
            counters.update(self.accelerator.faults.counters())
        return ExecutionResult(
            latency_ns=latency_ns,
            energy_joules=self._energy_joules,
            kernel_timings=flat_timings,
            mean_power_watts=mean_power,
            mean_frequency_ghz=self.accelerator.dvfs.mean_frequency_ghz()
            if self.accelerator.dvfs.decisions
            else self.accelerator.clock_ghz,
            counters=counters,
        )

    def run_on(
        self, compiled: CompiledModel, assignment: Assignment
    ) -> ExecutionResult:
        """Execute on an assignment the caller already holds (multi-tenant
        serving keeps long-lived assignments across many launches)."""
        results = self.run_concurrent({assignment.tenant: (compiled, assignment)})
        return results[assignment.tenant]

    def _closed_form_applies(self, jobs: dict, groups_by_tenant: dict) -> bool:
        """Whether this launch may compute its kernel steps directly.

        One job, no fault that could fire, nothing else queued on the
        simulator, one L3 port, and L2 slices with a port for each writer
        a step can have (the weight broadcast and the group's own pull).
        """
        accelerator = self.accelerator
        injector = accelerator.faults
        if len(jobs) != 1 or injector is not None and (
            injector.fatal_pending
            or any(getattr(injector.plan, name) for name in RATE_FIELDS)
        ):
            return False
        chip = accelerator.chip
        [groups] = groups_by_tenant.values()
        writers = 2 if chip.features.l2_broadcast and len(groups) > 1 else 1
        return (
            not accelerator.sim._queue
            and accelerator.l3.ports.capacity == 1
            and chip.l2_per_group.ports >= writers
        )

    def run_concurrent(
        self, jobs: dict[str, tuple[CompiledModel, Assignment]]
    ) -> dict[str, ExecutionResult]:
        """Execute several tenants' models *simultaneously* on their slices.

        This is §IV-E running in the detailed simulator: every tenant's
        kernels progress in parallel on isolated processing groups, sharing
        only the L3 port and the chip-wide power envelope. Returns one
        ExecutionResult per tenant (energy/power fields are chip-wide).
        """
        if not jobs:
            raise ValueError("run_concurrent needs at least one job")
        sim = self.accelerator.sim
        self._finished = False
        self._energy_joules = 0.0
        self._power_samples = []
        self._power_timeline = []
        start_time = sim.now
        self._main_end = start_time
        trace_mark = len(self.accelerator.trace.intervals)
        fault_mark = (
            len(self.accelerator.faults.records)
            if self.accelerator.faults is not None
            else 0
        )

        groups_by_tenant = {
            tenant: [self.accelerator.group(gid) for gid in assignment.groups]
            for tenant, (_compiled, assignment) in jobs.items()
        }
        timings_by_tenant: dict[str, dict] = {tenant: {} for tenant in jobs}
        completions: dict[str, float] = {}

        if self._closed_form_applies(jobs, groups_by_tenant):
            self.accelerator.launch_paths["closed_form"] += 1
            [(tenant, (compiled, _assignment))] = jobs.items()
            launch = _ClosedFormLaunch(
                self.accelerator, compiled, groups_by_tenant[tenant],
                timings_by_tenant[tenant], start_time,
            )
            sim.spawn(self._power_manager(launch.advance), name="executor.power")
            sim.run()
            completions[tenant] = launch.now
        else:
            self.accelerator.launch_paths["event"] += 1

            def _supervisor():
                mains = [
                    sim.spawn(
                        self._model_process(
                            compiled,
                            groups_by_tenant[tenant],
                            timings_by_tenant[tenant],
                            completions,
                            label=tenant,
                        ),
                        name=f"executor.{tenant}",
                    )
                    for tenant, (compiled, _assignment) in jobs.items()
                ]
                yield AllOf([main.done_event for main in mains])
                self._finished = True
                self._main_end = sim.now

            sim.spawn(_supervisor(), name="executor.supervisor")
            sim.spawn(self._power_manager(), name="executor.power")
            sim.run()

        fault = None
        injector = self.accelerator.faults
        if injector is not None:
            fault = injector.take_fatal()
            if fault is not None:
                # The simulation drained cleanly (fatal faults fast-forward,
                # they never strand ports or barriers), so the launch can be
                # retried on this same accelerator. Surface the typed fault
                # with the simulated time the failed attempt consumed.
                fault.elapsed_ns = max(completions.values()) - start_time

        results = None
        if fault is None:
            results = {
                tenant: self._collect(
                    compiled,
                    groups_by_tenant[tenant],
                    timings_by_tenant[tenant],
                    latency_ns=completions[tenant] - start_time,
                )
                for tenant, (compiled, _assignment) in jobs.items()
            }

        if self.accelerator.obs is not None:
            self._emit_observability(
                jobs, groups_by_tenant, timings_by_tenant, completions,
                results, start_time, trace_mark, fault_mark,
            )
        if fault is not None:
            raise fault
        return results

    # -- observability bridge ------------------------------------------------

    def _emit_observability(
        self,
        jobs: dict,
        groups_by_tenant: dict,
        timings_by_tenant: dict,
        completions: dict[str, float],
        results: "dict[str, ExecutionResult] | None",
        start_time: float,
        trace_mark: int,
        fault_mark: int,
    ) -> None:
        """Report this run into the attached Observability hub.

        Runs once per launch, after the simulation drained — nothing here
        touches the simulated hot path, so with no hub attached the run is
        bit-identical and pays zero cost.
        """
        obs = self.accelerator.obs
        tracer = obs.tracer
        metrics = obs.metrics
        sim_now = self.accelerator.sim.now

        # runtime layer: one span per tenant run, one child span per kernel.
        flops_by_kernel = {
            kernel.name: (kernel.category, kernel.cost.flops)
            for compiled, _assignment in jobs.values()
            for kernel in compiled.kernels
        }
        kernel_hist = metrics.histogram(
            "runtime_kernel_duration_ns",
            "wall time of one kernel on its group slice", unit="ns",
        )
        kernel_count = metrics.counter(
            "runtime_kernels_total", "kernels executed"
        )
        kernel_flops = metrics.counter(
            "runtime_kernel_flops_total", "FLOPs of executed kernels",
            unit="flops",
        )
        tenant_ctx = {}
        for tenant, (compiled, _assignment) in jobs.items():
            end = completions.get(tenant, sim_now)
            ctx = tracer.add_span(
                f"run:{compiled.name}", layer="runtime",
                start_ns=start_time, end_ns=end,
                parent=self.trace_ctx, track=f"executor.{tenant}",
                tenant=tenant, model=compiled.name,
                groups=len(groups_by_tenant[tenant]),
            )
            tenant_ctx[tenant] = ctx
            for kernel in compiled.kernels:
                recorded = timings_by_tenant[tenant].get(kernel.name, [])
                for timing in recorded[:1]:
                    tracer.add_span(
                        timing.name, layer="runtime",
                        start_ns=timing.start_ns, end_ns=timing.end_ns,
                        parent=ctx, track=f"kernels.{tenant}",
                        cat=timing.category,
                        compute_ns=timing.compute_ns, dma_ns=timing.dma_ns,
                        icache_stall_ns=timing.icache_stall_ns,
                        sync_ns=timing.sync_ns, clock_ghz=timing.clock_ghz,
                    )
                    kernel_hist.observe(
                        timing.duration_ns, category=timing.category
                    )
                    kernel_count.inc(category=timing.category)
                    _category, flops = flops_by_kernel[timing.name]
                    kernel_flops.inc(flops, category=timing.category)

        # sim layer: every engine interval this run appended to the trace.
        ctx_by_group = {
            group.name: tenant_ctx[tenant]
            for tenant, groups in groups_by_tenant.items()
            for group in groups
        }
        engine_busy = metrics.counter(
            "sim_engine_busy_ns_total",
            "busy time per engine per processing group", unit="ns",
        )
        for interval in self.accelerator.trace.intervals[trace_mark:]:
            family, _, group_name = interval.engine.partition(".")
            tracer.add_span(
                interval.label, layer="sim",
                start_ns=interval.start, end_ns=interval.end,
                parent=ctx_by_group.get(group_name, self.trace_ctx),
                track=interval.engine, cat=family,
            )
            engine_busy.inc(interval.duration, engine=family, group=group_name)

        # fault layer: every injector record this run produced, as a span
        # whose duration is the recovery penalty the plan charges (zero for
        # perturbations whose cost is folded into the component's own
        # interval, e.g. DMA replays).
        injector = self.accelerator.faults
        if injector is not None and len(injector.records) > fault_mark:
            penalties = {
                "ecc.ce": ECC_RETRY_NS,
                "sync.lost": SYNC_TIMEOUT_NS,
                "core.hang": WATCHDOG_TIMEOUT_NS,
            }
            injected = metrics.counter(
                "faults_injected_total", "hardware faults injected"
            )
            for record in injector.records[fault_mark:]:
                # Fleet deployments share one tracer across devices: prefix
                # the track with the device identity so fault streams from
                # distinct boards never collide on one row.
                track = record.component
                if record.device:
                    track = f"{record.device}.{record.component}"
                tracer.add_span(
                    record.kind, layer="fault",
                    start_ns=record.time_ns,
                    end_ns=record.time_ns + penalties.get(record.kind, 0.0),
                    parent=self.trace_ctx, track=track,
                    recovered=record.recovered, detail=record.detail,
                )
                injected.inc(
                    kind=record.kind,
                    recovered=str(record.recovered).lower(),
                )

        # power layer: the power-manager's window samples + energy totals.
        for when, watts in self._power_timeline:
            tracer.add_counter_sample(
                "chip_power_watts", layer="power", time_ns=when, watts=watts
            )
        metrics.counter(
            "power_energy_joules_total", "energy integrated over windows",
            unit="joules",
        ).inc(self._energy_joules)
        metrics.counter(
            "power_windows_total", "power-manager observation windows"
        ).inc(len(self._power_timeline))
        if self._power_samples:
            metrics.gauge(
                "power_mean_watts", "mean chip power of the last launch",
                unit="watts",
            ).set(sum(self._power_samples) / len(self._power_samples))
        metrics.gauge(
            "power_mean_frequency_ghz",
            "mean DVFS frequency of the last launch", unit="ghz",
        ).set(
            self.accelerator.dvfs.mean_frequency_ghz()
            if self.accelerator.dvfs.decisions
            else self.accelerator.clock_ghz
        )

        # engine core: dispatch + fast-path accounting (the `repro profile`
        # engine table; docs/sim-internals.md). Gauges, not counters: these
        # snapshot monotonic totals owned by the engine objects.
        sim = self.accelerator.sim
        metrics.gauge(
            "sim_events_dispatched", "event-core wakeups dispatched"
        ).set(getattr(sim, "events_dispatched", 0), engine=sim.engine)
        metrics.gauge(
            "sim_time_steps", "distinct timestamps the clock stepped through"
        ).set(getattr(sim, "time_steps", 0), engine=sim.engine)

        # hardware counters mirrored from the results.
        if results:
            mirrored = {
                "icache_hits": "sim_icache_hits_total",
                "icache_misses": "sim_icache_misses_total",
                "icache_prefetch_hits": "sim_icache_prefetch_hits_total",
                "dma_configurations": "sim_dma_configurations_total",
                "dma_bytes": "sim_dma_bytes_total",
                "dma_wire_bytes": "sim_dma_wire_bytes_total",
            }
            for result in results.values():
                for source, target in mirrored.items():
                    if source in result.counters:
                        metrics.counter(target).inc(result.counters[source])
