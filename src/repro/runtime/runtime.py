"""TopsRuntime: device management, memory allocation, task launch (§V-B).

"TopsRuntime is a library for DTU runtime management. It triggers resource
allocation and task execution, which is critical for efficient deployment of
heterogeneous systems."

:class:`Device` is the user-facing handle mirroring the CUDA-style flow the
paper describes for TopsEngine ("the developer needs to allocate device
memory and launch the kernel to interact with accelerator from the host
CPU"): allocate L3 buffers, upload graphs through the compiler, launch, and
read back profiling results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from repro.caching import COMPILE_CACHE, CompileCache
from repro.compiler.lowering import CompiledModel
from repro.compiler.pipeline import compile_graph
from repro.core.accelerator import Accelerator
from repro.core.datatypes import DType
from repro.core.errors import ReproRuntimeError
from repro.core.resource import recommend_groups
from repro.faults.errors import DeadlineExceededError, TransientFault
from repro.graph.ir import Graph
from repro.graph.shape_inference import bind_shapes, dynamic_symbols
from repro.runtime.executor import ExecutionResult, Executor

#: Process-wide monotonic counter behind Device.open's auto-assigned ids.
_OPEN_COUNTER = count()


@dataclass
class Device:
    """One accelerator card as the host runtime sees it."""

    accelerator: Accelerator
    device_id: str = ""
    """Unique identity of this card instance. Auto-assigned by
    :meth:`open` (``"i20-0"``, ``"i20-1"``, ...) so a fleet of devices
    opened in one process never aliases: launch spans/metrics and fault
    records carry the id, keeping per-device telemetry distinguishable."""
    _buffers: dict[str, int] = field(default_factory=dict)

    @classmethod
    def open(
        cls, name: str = "i20", obs=None, device_id: str | None = None
    ) -> "Device":
        """Open a simulated device by product name ('i20' or 'i10').

        Every call builds a *distinct* card instance and assigns it a
        unique ``device_id`` (``"<name>-<n>"`` from a process-wide
        counter, or the caller's explicit id — fleet managers pass stable
        ids like ``"i20-r0"`` so reports stay reproducible run-to-run).

        ``obs`` optionally attaches an :class:`~repro.obs.Observability`
        hub: every launch then reports spans (runtime/sim/fault/power
        layers) and metrics into it. Without one, telemetry costs nothing.
        """
        accelerator = Accelerator.by_name(name)
        if obs is not None:
            accelerator.attach_observability(obs)
        if device_id is None:
            device_id = f"{name}-{next(_OPEN_COUNTER)}"
        return cls(accelerator, device_id=device_id)

    # -- memory ---------------------------------------------------------------

    def malloc(self, name: str, nbytes: int) -> None:
        """Allocate a named L3 buffer (device global memory)."""
        self.accelerator.l3.allocate(name, nbytes)
        self._buffers[name] = nbytes

    def free(self, name: str) -> None:
        self.accelerator.l3.free(name)
        self._buffers.pop(name, None)

    @property
    def memory_in_use(self) -> int:
        return self.accelerator.l3.used_bytes

    # -- compile & launch -------------------------------------------------------

    def compile(
        self,
        graph: Graph,
        dtype: DType = DType.FP16,
        fusion: bool | None = None,
        cache: CompileCache | bool | None = None,
        verify_fusion: bool = False,
        **shape_bindings: int,
    ) -> CompiledModel:
        """TopsInference + TopsEngine pipeline: validate, optimize, lower.

        Compiled models are content-addressed: the bound graph's
        :meth:`~repro.graph.ir.Graph.structural_hash` plus chip config,
        dtype, fusion flag and guard flag key the process-wide
        :data:`repro.caching.COMPILE_CACHE` (see docs/performance.md), so
        recompiling an identical graph returns the shared, already-lowered
        model. Pass ``cache`` to use a private cache, or ``cache=False``
        to force a fresh lowering.

        The pipeline is hardened (see docs/robustness.md): malformed
        graphs raise :class:`~repro.graph.ir.GraphValidationError` /
        :class:`~repro.compiler.errors.CompileError` naming the offending
        node, and ``verify_fusion=True`` replays every fused group
        against its unfused members on seeded inputs, auto-falling back
        to an unfused compile (with a warning and a
        ``fusion_guard_fallbacks_total`` bump) on numeric mismatch.
        """
        if shape_bindings:
            graph = bind_shapes(graph, **shape_bindings)
        unbound = dynamic_symbols(graph)
        if unbound:
            raise ReproRuntimeError(
                f"graph has unbound dynamic dims {sorted(unbound)}; pass "
                "bindings to compile()"
            )
        if fusion is None:
            fusion = self.accelerator.chip.features.operator_fusion

        def build() -> CompiledModel:
            result = compile_graph(
                graph,
                self.accelerator.chip,
                dtype=dtype,
                fusion=fusion,
                verify_fusion=verify_fusion,
                obs=self.accelerator.obs,
            )
            return result.model

        if cache is False:
            return build()
        if cache is None:
            cache = COMPILE_CACHE
        key = CompileCache.key_for(
            graph, self.accelerator.chip, dtype, fusion, verify_fusion
        )
        hits_before = cache.stats.hits
        compiled = cache.get_or_build(key, build)
        obs = self.accelerator.obs
        if obs is not None:
            outcome = "hit" if cache.stats.hits > hits_before else "miss"
            obs.metrics.counter(
                "compile_cache_lookups_total", "Device.compile cache outcomes"
            ).inc(result=outcome)
        return compiled

    def launch(
        self,
        compiled: CompiledModel,
        num_groups: int | None = None,
        tenant: str = "default",
        deadline_ms: float | None = None,
        max_retries: int = 0,
        retry_backoff_ms: float = 0.05,
        trace_ctx=None,
    ) -> ExecutionResult:
        """Run one inference; groups default to the Fig. 7 recommendation.

        Refuses models whose resident footprint (weights + code + buffered
        activations, see :meth:`CompiledModel.memory_footprint_bytes`)
        exceeds the device's L3 capacity — the constraint the Fig. 12
        memory-capacity row is about.

        RAS semantics (active when a fault campaign is attached to the
        accelerator): a :class:`~repro.faults.TransientFault` — aborted
        DMA, uncorrectable ECC, watchdog core reset — is retried up to
        ``max_retries`` times with exponential backoff starting at
        ``retry_backoff_ms``; the time failed attempts and backoffs
        consumed is folded into the returned latency. When the final
        latency exceeds ``deadline_ms`` the launch raises
        :class:`~repro.faults.DeadlineExceededError`; with retries
        exhausted the last fault propagates.

        Observability: with a hub attached (``Device.open(obs=...)`` or
        ``accelerator.attach_observability``), the launch opens a
        ``launch:<model>`` span — parented under ``trace_ctx`` when the
        caller (e.g. serving admission) supplies one — with one child
        span per attempt, and mirrors launch counters into the registry.
        """
        l3 = self.accelerator.l3
        available = l3.capacity_bytes - l3.used_bytes
        if not compiled.fits(available):
            raise ReproRuntimeError(
                f"{compiled.name} needs "
                f"{compiled.memory_footprint_bytes() / 1e9:.2f} GB but only "
                f"{available / 1e9:.2f} GB of device memory is free"
            )
        if num_groups is None:
            working_set = max(
                (kernel.cost.boundary_bytes for kernel in compiled.kernels),
                default=0,
            )
            num_groups = recommend_groups(working_set, self.accelerator.chip)

        obs = self.accelerator.obs
        sim = self.accelerator.sim
        launch_handle = None
        # Per-device track: distinct cards opened against one tracer keep
        # their launches on separate rows (and the span carries the id).
        # Beyond DEVICE_LABEL_CAP (64) distinct cards, the identity
        # collapses into the "other" bucket (repro.obs.labels) so
        # thousand-device fleets don't explode span/label cardinality.
        device_name = self.device_id
        if device_name and obs is not None:
            from repro.obs.labels import device_label

            device_name = device_label(obs, self.device_id)
        device_track = f"device.{device_name}" if device_name else "device"
        if obs is not None:
            span_attrs = {}
            if device_name:
                span_attrs["device"] = device_name
            launch_handle = obs.tracer.begin(
                f"launch:{compiled.name}", layer="runtime",
                start_ns=sim.now, parent=trace_ctx, track=device_track,
                model=compiled.name, tenant=tenant, groups=num_groups,
                **span_attrs,
            )

        overhead_ns = 0.0
        retries = 0
        while True:
            attempt_handle = None
            if launch_handle is not None:
                attempt_handle = obs.tracer.begin(
                    f"attempt{retries}", layer="runtime", start_ns=sim.now,
                    parent=launch_handle.context, track=device_track,
                )
            executor = Executor(self.accelerator)
            if attempt_handle is not None:
                executor.trace_ctx = attempt_handle.context
            try:
                result = executor.run(compiled, num_groups=num_groups, tenant=tenant)
                if attempt_handle is not None:
                    attempt_handle.end(sim.now, status="ok")
                break
            except TransientFault as fault:
                if attempt_handle is not None:
                    attempt_handle.end(
                        sim.now, status="transient_fault", fault=str(fault)
                    )
                overhead_ns += getattr(fault, "elapsed_ns", 0.0)
                if retries >= max_retries:
                    self._finish_launch(
                        launch_handle, compiled.name, "failed", retries
                    )
                    raise
                overhead_ns += retry_backoff_ms * 1e6 * (2.0 ** retries)
                retries += 1
        if retries or overhead_ns:
            result.latency_ns += overhead_ns
            result.counters["launch_retries"] = retries
            result.counters["retry_overhead_ns"] = overhead_ns
        if deadline_ms is not None and result.latency_ms > deadline_ms:
            self._finish_launch(
                launch_handle, compiled.name, "deadline_exceeded", retries
            )
            raise DeadlineExceededError(
                f"{compiled.name}: {result.latency_ms:.3f} ms exceeds the "
                f"{deadline_ms} ms deadline after {retries} retries"
            )
        self._finish_launch(
            launch_handle, compiled.name, "ok", retries,
            latency_ms=result.latency_ms,
        )
        return result

    def _finish_launch(
        self,
        launch_handle,
        model: str,
        status: str,
        retries: int,
        latency_ms: float | None = None,
    ) -> None:
        """Close the launch span and mirror launch metrics (no-op sans obs)."""
        obs = self.accelerator.obs
        if obs is None:
            return
        if launch_handle is not None and not launch_handle.closed:
            launch_handle.end(
                self.accelerator.sim.now, status=status, retries=retries
            )
        # Label launch counters with the device identity when one is set,
        # so fleet-wide registries can slice outcomes per card. The
        # identity is capped (repro.obs.labels): past the cap, devices
        # share the "other" bucket instead of minting new label values.
        id_label = {}
        if self.device_id:
            from repro.obs.labels import device_label

            id_label = {"device": device_label(obs, self.device_id)}
        obs.metrics.counter(
            "runtime_launches_total", "model launches by outcome"
        ).inc(model=model, status=status, **id_label)
        if retries:
            obs.metrics.counter(
                "runtime_launch_retries_total", "launch-level RAS retries"
            ).inc(retries, model=model, **id_label)
        if latency_ms is not None:
            from repro.obs.metrics import DEFAULT_BUCKETS_MS

            obs.metrics.histogram(
                "runtime_launch_latency_ms",
                "end-to-end launch latency (incl. retry overhead)",
                unit="ms", buckets=DEFAULT_BUCKETS_MS,
            ).observe(latency_ms, model=model)

    def run(
        self,
        graph: Graph,
        dtype: DType = DType.FP16,
        num_groups: int | None = None,
        **shape_bindings: int,
    ) -> ExecutionResult:
        """compile + launch in one call."""
        compiled = self.compile(graph, dtype=dtype, **shape_bindings)
        return self.launch(compiled, num_groups=num_groups)
