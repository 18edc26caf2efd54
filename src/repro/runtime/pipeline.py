"""Pipeline (layer-wise) parallelism across processing groups.

The paper's executor splits every kernel *data-parallel* across the
assigned groups. For streaming inference there is a second classical
mapping the resource abstraction (§IV-E) enables: partition the network's
kernels into *stages*, pin each stage to its own processing-group slice,
and stream requests through — stage `s` works on request `n` while stage
`s+1` finishes request `n-1`. Steady-state throughput is set by the
slowest stage, and cross-stage handoffs ride the synchronization engine's
1-to-1 pattern (§IV-D).

This is flagged in DESIGN.md as an extension (the paper does not evaluate
pipelining); it reuses the per-kernel timing model of
:class:`~repro.runtime.executor.Executor` and runs the stream on the same
discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.lowering import CompiledModel
from repro.core.accelerator import Accelerator
from repro.runtime.executor import Executor, kernel_compute_ns, launch_plan
from repro.sim.kernel import AllOf, Timeout
from repro.sync.events import Barrier, Semaphore


class PipelineError(RuntimeError):
    """Invalid pipeline configuration."""


@dataclass(frozen=True)
class StagePlan:
    """One pipeline stage: a contiguous kernel range on a group slice."""

    stage: int
    kernel_range: tuple[int, int]
    groups: tuple
    estimated_ns: float


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of streaming ``requests`` inferences through the pipeline."""

    requests: int
    makespan_ns: float
    first_latency_ns: float
    stages: tuple[StagePlan, ...]

    @property
    def throughput_per_s(self) -> float:
        if self.makespan_ns == 0:
            return float("inf")
        return self.requests * 1e9 / self.makespan_ns

    @property
    def steady_interval_ns(self) -> float:
        """Per-request interval once the pipeline is full."""
        if self.requests <= 1:
            return self.makespan_ns
        return (self.makespan_ns - self.first_latency_ns) / (self.requests - 1)


def partition_stages(
    compiled: CompiledModel,
    executor: Executor,
    num_stages: int,
    groups_per_stage: int,
) -> list[tuple[int, int]]:
    """Balance kernels into contiguous stages by estimated compute time."""
    if num_stages < 1:
        raise PipelineError(f"need >= 1 stage, got {num_stages}")
    if num_stages > len(compiled.kernels):
        raise PipelineError(
            f"{num_stages} stages for {len(compiled.kernels)} kernels"
        )
    chip = executor.accelerator.chip
    costs = [
        max(
            kernel_compute_ns(
                chip, kernel, cores=chip.cores_per_group,
                clock_ghz=chip.max_clock_ghz, num_groups=groups_per_stage,
            ),
            1.0,
        )
        for kernel in compiled.kernels
    ]
    target = sum(costs) / num_stages
    ranges: list[tuple[int, int]] = []
    start = 0
    accumulated = 0.0
    for index, cost in enumerate(costs):
        accumulated += cost
        remaining_kernels = len(costs) - index - 1
        remaining_stages = num_stages - len(ranges) - 1
        if (
            accumulated >= target and remaining_stages > 0
            and remaining_kernels >= remaining_stages
        ):
            ranges.append((start, index + 1))
            start = index + 1
            accumulated = 0.0
        if len(ranges) == num_stages - 1:
            break
    ranges.append((start, len(costs)))
    while len(ranges) < num_stages:  # degenerate: pad with empty-free split
        last_start, last_stop = ranges.pop()
        middle = max(last_start + 1, (last_start + last_stop) // 2)
        ranges.extend([(last_start, middle), (middle, last_stop)])
    return ranges


class PipelineExecutor:
    """Streams a request sequence through a staged pipeline."""

    def __init__(self, accelerator: Accelerator) -> None:
        self.accelerator = accelerator
        self.executor = Executor(accelerator)

    def run(
        self,
        compiled: CompiledModel,
        num_stages: int,
        requests: int,
        tenant: str = "pipeline",
    ) -> PipelineResult:
        if requests < 1:
            raise PipelineError(f"need >= 1 request, got {requests}")
        accelerator = self.accelerator
        chip = accelerator.chip
        total_groups = chip.total_groups
        if num_stages > total_groups:
            raise PipelineError(
                f"{num_stages} stages exceed {total_groups} processing groups"
            )
        groups_per_stage = total_groups // num_stages

        assignments = [
            accelerator.resources.assign(f"{tenant}.stage{stage}", groups_per_stage)
            for stage in range(num_stages)
        ]
        try:
            return self._run_stages(
                compiled, assignments, num_stages, groups_per_stage, requests
            )
        finally:
            for stage in range(num_stages):
                accelerator.resources.release(f"{tenant}.stage{stage}")

    def _run_stages(
        self, compiled, assignments, num_stages, groups_per_stage, requests
    ) -> PipelineResult:
        sim = self.accelerator.sim
        ranges = partition_stages(
            compiled, self.executor, num_stages, groups_per_stage
        )
        stage_lanes = [
            self.executor._lanes(
                [self.accelerator.group(gid) for gid in assignment.groups]
            )
            for assignment in assignments
        ]
        plan = launch_plan(compiled, self.accelerator.chip, groups_per_stage)
        # 1-to-1 handoff semaphores between consecutive stages (§IV-D).
        handoffs = [
            Semaphore(sim, name=f"stage{stage}->{stage + 1}")
            for stage in range(num_stages - 1)
        ]
        first_done = {"at": None}
        start_time = sim.now
        sync_latency = self.accelerator.chip.sync_latency_ns

        def stage_process(stage: int):
            lo, hi = ranges[stage]
            lanes = stage_lanes[stage]
            timings: dict = {}
            for request in range(requests):
                if stage > 0:
                    yield handoffs[stage - 1].wait()
                for index in range(lo, hi):
                    next_kernel = (
                        compiled.kernels[index + 1]
                        if index + 1 < hi
                        else None
                    )
                    barrier = Barrier(
                        sim, parties=len(lanes),
                        name=f"s{stage}r{request}k{index}",
                    )
                    processes = [
                        sim.spawn(
                            self.executor._run_kernel_on_group(
                                plan, index, next_kernel, lane, barrier,
                                weight_leader=(position == 0),
                                timings=timings,
                            )
                        )
                        for position, lane in enumerate(lanes)
                    ]
                    yield AllOf([process.done_event for process in processes])
                if stage < num_stages - 1:
                    yield Timeout(sync_latency)
                    handoffs[stage].signal()
                elif first_done["at"] is None:
                    first_done["at"] = sim.now

        processes = [
            sim.spawn(stage_process(stage), name=f"pipeline.stage{stage}")
            for stage in range(num_stages)
        ]
        self.executor._finished = False
        self.executor._main_end = start_time

        def supervisor():
            yield AllOf([process.done_event for process in processes])
            self.executor._finished = True
            self.executor._main_end = sim.now

        sim.spawn(supervisor(), name="pipeline.supervisor")
        sim.spawn(self.executor._power_manager(), name="pipeline.power")
        sim.run()

        makespan = self.executor._main_end - start_time
        plans = tuple(
            StagePlan(
                stage=stage,
                kernel_range=ranges[stage],
                groups=assignments[stage].groups,
                estimated_ns=0.0,
            )
            for stage in range(num_stages)
        )
        return PipelineResult(
            requests=requests,
            makespan_ns=makespan,
            first_latency_ns=(first_done["at"] or makespan) - start_time,
            stages=plans,
        )
