"""Lowering: optimized graph -> compiled kernels for one chip config.

This is where TopsEngine's pieces meet: for every (possibly fused) node the
lowerer

- aggregates FLOPs and splits memory traffic into boundary bytes (crossing
  L3) vs internal bytes (kept on-chip by fusion),
- runs **auto-tensorization** for conv/GEMM anchors to get the matrix-engine
  utilization for the node's actual shapes,
- runs the **data-flow auto-tuner** to pick a tiling and the matching DMA
  configuration count (1 with repeat mode),
- estimates kernel **code size**, which the instruction-buffer model charges
  on fetch.

The output :class:`CompiledModel` is an ordered kernel list the runtime
executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.errors import CompileError
from repro.compiler.kernel import Kernel, KernelCost
from repro.compiler.tensorize import (
    GemmShape,
    TensorizationPlan,
    conv2d_as_gemm,
    tensorize_gemm,
)
from repro.compiler.tiling import TilingPlan, tune_tiling
from repro.core.config import ChipConfig
from repro.core.datatypes import DType
from repro.graph.fusion import fused_members
from repro.graph.ir import Graph, GraphError, Node
from repro.graph.ops import node_flops, spec

#: instruction-count estimates per op category, used for code size
_CODE_INSTRUCTIONS = {
    "conv": 1400,
    "gemm": 1100,
    "elementwise": 180,
    "activation": 260,
    "norm": 320,
    "softmax": 380,
    "pool": 240,
    "reduce": 220,
    "layout": 160,
    "embedding": 200,
    "sort": 900,
}
_BYTES_PER_INSTRUCTION = 16


class LoweringError(CompileError):
    """Lowering hit a node it cannot compile."""


@dataclass
class CompiledModel:
    """Ordered kernels plus compile-time metadata for one graph."""

    name: str
    kernels: list[Kernel]
    dtype: DType
    chip: ChipConfig
    fusion_groups: int = 0
    launch_plans: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    """The runtime's launch plans by group count, one per chip, built on
    first launch (:func:`repro.runtime.executor.launch_plan`). They hold
    numbers and strings only, so a cached model keeps no device alive."""

    @property
    def total_flops(self) -> float:
        return sum(kernel.cost.flops for kernel in self.kernels)

    @property
    def total_boundary_bytes(self) -> int:
        return sum(kernel.cost.boundary_bytes for kernel in self.kernels)

    @property
    def total_internal_bytes(self) -> int:
        return sum(kernel.cost.internal_bytes for kernel in self.kernels)

    @property
    def total_code_bytes(self) -> int:
        return sum(kernel.code_bytes for kernel in self.kernels)

    @property
    def weight_bytes(self) -> int:
        return sum(kernel.cost.weight_bytes for kernel in self.kernels)

    @property
    def peak_activation_bytes(self) -> int:
        """Largest single-kernel activation footprint (inputs + outputs
        live simultaneously while a kernel runs)."""
        return max(
            (
                kernel.cost.input_bytes + kernel.cost.output_bytes
                for kernel in self.kernels
            ),
            default=0,
        )

    def memory_footprint_bytes(self) -> int:
        """Device memory one resident instance needs: all weights + kernel
        code + double-buffered peak activations."""
        return (
            self.weight_bytes
            + self.total_code_bytes
            + 2 * self.peak_activation_bytes
        )

    def fits(self, capacity_bytes: int) -> bool:
        return self.memory_footprint_bytes() <= capacity_bytes


def _node_gemm_shape(node: Node, graph: Graph) -> GemmShape | None:
    """GEMM view of a conv/dense/matmul node for the tensorizer."""
    if node.op_type == "conv2d":
        out_type = graph.tensor_type(node.outputs[0])
        weight_type = graph.tensor_type(node.inputs[1])
        batch, _out_c, out_h, out_w = out_type.shape
        out_c, weight_in, k_h, k_w = weight_type.shape
        if any(isinstance(dim, str) for dim in (batch, out_h, out_w)):
            raise LoweringError(
                f"{node.name}: bind symbolic dims before lowering",
                node=node.name,
            )
        return conv2d_as_gemm(batch, out_c, out_h, out_w, weight_in, k_h, k_w)
    if node.op_type == "conv1d":
        out_type = graph.tensor_type(node.outputs[0])
        weight_type = graph.tensor_type(node.inputs[1])
        batch, out_c, out_l = out_type.shape
        _o, weight_in, kernel = weight_type.shape
        if any(isinstance(dim, str) for dim in (batch, out_l)):
            raise LoweringError(
                f"{node.name}: bind symbolic dims before lowering",
                node=node.name,
            )
        return GemmShape(m=batch * out_l, n=out_c, k=weight_in * kernel)
    if node.op_type == "conv_transpose2d":
        in_type = graph.tensor_type(node.inputs[0])
        weight_type = graph.tensor_type(node.inputs[1])
        batch, in_c, in_h, in_w = in_type.shape
        _i, out_c, k_h, k_w = weight_type.shape
        if any(isinstance(dim, str) for dim in (batch, in_h, in_w)):
            raise LoweringError(
                f"{node.name}: bind symbolic dims before lowering",
                node=node.name,
            )
        return GemmShape(m=batch * in_h * in_w, n=out_c * k_h * k_w, k=in_c)
    if node.op_type == "dense":
        in_type = graph.tensor_type(node.inputs[0])
        weight_type = graph.tensor_type(node.inputs[1])
        rows = 1
        for dim in in_type.shape[:-1]:
            if isinstance(dim, str):
                raise LoweringError(
                    f"{node.name}: bind symbolic dims before lowering",
                    node=node.name,
                )
            rows *= dim
        out_features, in_features = weight_type.shape
        return GemmShape(m=rows, n=out_features, k=in_features)
    if node.op_type == "matmul":
        a_type = graph.tensor_type(node.inputs[0])
        out_type = graph.tensor_type(node.outputs[0])
        if not (a_type.is_static and out_type.is_static):
            raise LoweringError(
                f"{node.name}: bind symbolic dims before lowering",
                node=node.name,
            )
        batch = 1
        for dim in out_type.shape[:-2]:
            batch *= dim
        m, n = out_type.shape[-2], out_type.shape[-1]
        k = a_type.shape[-1]
        return GemmShape(m=batch * m, n=n, k=k)
    return None


def _code_bytes(members: list[Node]) -> int:
    instructions = sum(
        _CODE_INSTRUCTIONS.get(spec(member.op_type).category, 200)
        for member in members
    )
    return instructions * _BYTES_PER_INSTRUCTION


def lower_node(
    node: Node,
    graph: Graph,
    chip: ChipConfig,
    dtype: DType,
) -> Kernel:
    """Compile one (fused or primitive) node into a kernel."""
    members = fused_members(node)
    internal = set(node.attrs.get("internal_tensors", []))

    flops = 0.0
    for member in members:
        input_types = [graph.tensor_type(name) for name in member.inputs]
        output_types = [graph.tensor_type(name) for name in member.outputs]
        flops += node_flops(member, input_types, output_types)

    # Byte counts use the *deployment* dtype: an FP16 compile moves half
    # the bytes the builder's FP32 tensor types would suggest.
    def _nbytes(name: str) -> int:
        return graph.tensor_type(name).num_elements() * dtype.bytes

    input_bytes = 0
    weight_bytes = 0
    for name in node.inputs:
        if name in graph.initializers:
            weight_bytes += _nbytes(name)
        else:
            input_bytes += _nbytes(name)
    output_bytes = sum(_nbytes(name) for name in node.outputs)
    internal_bytes = sum(_nbytes(name) for name in internal)

    anchor = node.attrs.get("anchor", node.op_type)
    category = spec(anchor).category if anchor != "fused" else "elementwise"
    cost = KernelCost(
        flops=flops,
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        weight_bytes=weight_bytes,
        internal_bytes=internal_bytes,
    )

    tensorization: TensorizationPlan | None = None
    anchor_node = members[0]
    gemm_shape = _node_gemm_shape(anchor_node, graph)
    if gemm_shape is not None:
        tensorization = tensorize_gemm(
            gemm_shape, dtype, fine_grained=chip.features.fine_grained_vmm
        )

    tiling: TilingPlan | None = None
    if cost.boundary_bytes > 0 and flops > 0:
        group_cores = chip.cores_per_group
        compute_rate = chip.core_flops_per_ns(dtype) * group_cores
        tiling = tune_tiling(
            cost,
            l1_capacity_bytes=chip.l1_per_core.capacity_bytes * group_cores,
            compute_flops_per_ns=compute_rate,
            dma_bandwidth_gbps=chip.l3.bandwidth_gbps / chip.total_groups,
            dma_config_overhead_ns=chip.dma_config_overhead_ns,
            repeat_mode=chip.features.repeat_dma,
        )

    sparsity = 0.0
    for member in members:
        sparsity = max(sparsity, float(member.attr("sparsity", 0.0)))

    return Kernel(
        name=node.name,
        category=category,
        dtype=dtype,
        cost=cost,
        code_bytes=_code_bytes(members),
        members=len(members),
        tiling=tiling,
        tensorization=tensorization,
        sparsity=sparsity,
        attrs={"op_type": node.op_type, "anchor": anchor},
    )


def lower_graph(
    graph: Graph, chip: ChipConfig, dtype: DType = DType.FP16
) -> CompiledModel:
    """Compile every node of an optimized graph in execution order."""
    kernels = []
    fusion_groups = 0
    for node in graph.topological_nodes():
        if node.op_type == "fused":
            fusion_groups += 1
        try:
            kernels.append(lower_node(node, graph, chip, dtype))
        except CompileError:
            raise
        except GraphError as error:
            raise LoweringError(
                f"lowering node {node.name!r} ({node.op_type}): {error}",
                node=node.name,
                stage="lowering",
            ) from error
        except Exception as error:
            raise LoweringError(
                f"lowering node {node.name!r} ({node.op_type}) crashed: "
                f"{error!r}",
                node=node.name,
                stage="lowering",
            ) from error
    return CompiledModel(
        name=graph.name,
        kernels=kernels,
        dtype=dtype,
        chip=chip,
        fusion_groups=fusion_groups,
    )
