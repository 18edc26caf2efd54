"""Automatic operator fusion (paper §V-B).

"The generated computation graph is optimized through automatic operator
fusion, to eliminate unnecessary materialization and scan of intermediate
values and benefit from the increased register/memory capacity. Currently,
the strategy of operator fusion is designed with expert knowledge."

The expert rules implemented, in priority order:

1. **producer-consumer epilogue fusion** — a conv/dense/matmul followed by a
   straight-line chain of cheap epilogues (bias add, batch_norm, activation,
   elementwise with a second input) folds into one ``fused`` node;
2. **elementwise chain fusion** — runs of elementwise/activation/norm ops
   merge;
3. **attention fusion** — the matmul -> scale -> softmax -> matmul pattern
   produced by :meth:`GraphBuilder.multi_head_attention` becomes one fused
   attention kernel.

A fused node keeps the member nodes in ``attrs["members"]`` so cost models
can aggregate FLOPs while charging memory traffic only at the fusion
boundary — the mechanism behind the paper's "eliminate unnecessary data
materialization and scan".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.ir import Graph, Node
from repro.graph.ops import spec

#: op categories that may ride along as a fused epilogue
FUSABLE_EPILOGUES = {"elementwise", "activation", "norm", "softmax"}
#: anchor categories that start a fusion group
ANCHOR_CATEGORIES = {"conv", "gemm"}
#: cap on members per fused kernel — oversized kernels blow out the
#: instruction buffer (the very problem §IV-B's prefetch addresses)
MAX_FUSION_LENGTH = 8


@dataclass(frozen=True)
class FusionReport:
    """What one fusion pass did."""

    groups: int
    nodes_fused: int
    nodes_before: int
    nodes_after: int


def _single_consumer_chain(
    graph: Graph, start: Node, consumers: dict[str, list[Node]]
) -> list[Node]:
    """Greedy straight-line chain of fusable epilogues after ``start``."""
    chain = [start]
    current = start
    while len(chain) < MAX_FUSION_LENGTH:
        if len(current.outputs) != 1:
            break
        output = current.outputs[0]
        if output in graph.outputs:
            break
        readers = consumers.get(output, [])
        if len(readers) != 1:
            break
        candidate = readers[0]
        # A fused (attention) node has no op spec and is never an epilogue.
        if (
            candidate.op_type == "fused"
            or spec(candidate.op_type).category not in FUSABLE_EPILOGUES
        ):
            break
        # Every other input of the candidate must already be available
        # (weights or earlier tensors) — fusing never reorders the graph
        # because the chain is straight-line.
        chain.append(candidate)
        current = candidate
    return chain


def _fuse_nodes(group: list[Node], index: int) -> Node:
    """Collapse a chain into one fused node."""
    internal = {output for node in group for output in node.outputs}
    internal -= set(group[-1].outputs)
    external_inputs: list[str] = []
    for node in group:
        for tensor in node.inputs:
            if tensor not in internal and tensor not in external_inputs:
                external_inputs.append(tensor)
    member_ops = [node.op_type for node in group]
    return Node(
        name=f"fused_{index}_" + "_".join(member_ops[:4]),
        op_type="fused",
        inputs=external_inputs,
        outputs=list(group[-1].outputs),
        attrs={
            "members": [
                {
                    "name": node.name,
                    "op_type": node.op_type,
                    "inputs": list(node.inputs),
                    "outputs": list(node.outputs),
                    "attrs": dict(node.attrs),
                }
                for node in group
            ],
            "anchor": group[0].op_type,
            "internal_tensors": sorted(internal),
        },
    )


def _splice(graph: Graph, rewrites: list[tuple[list[Node], Node]]) -> None:
    """Replace each group's members with its fused node, in one pass.

    The result is the list that applying the rewrites one at a time gives:
    ``position = graph.nodes.index(group[0])``, remove every member, then
    ``graph.nodes.insert(position, fused)``. The fused node takes its
    anchor's slot, moved right past one surviving node for every member
    that sat before the anchor (only possible when ``graph.nodes`` is not
    in topological order). Members are matched by identity on a linked
    list keyed by ``id()``, with 0 as the sentinel (no object has id 0).
    """
    if not rewrites:
        return
    position = {id(node): index for index, node in enumerate(graph.nodes)}
    objects = {id(node): node for node in graph.nodes}
    keys = [0, *position]
    after = dict(zip(keys, keys[1:] + [0]))
    before = dict(zip(keys, [keys[-1], *keys[:-1]]))
    for group, fused in rewrites:
        members = {id(member) for member in group}
        anchor = id(group[0])
        shift = sum(position[key] < position[anchor] for key in members)
        slot = anchor if shift else before[anchor]
        while shift:
            slot = after[slot]
            if slot == 0:  # ran off the end: append
                slot = before[0]
                break
            if slot not in members:
                shift -= 1
        key = id(fused)
        objects[key] = fused
        after[key], before[key] = after[slot], slot
        before[after[slot]] = key
        after[slot] = key
        for member in members:
            after[before[member]] = after[member]
            before[after[member]] = before[member]
    nodes = []
    key = after[0]
    while key:
        nodes.append(objects[key])
        key = after[key]
    graph.nodes = nodes


def fuse_attention(graph: Graph) -> int:
    """Fuse matmul -> mul(scale) -> softmax -> matmul into one node.

    Groups are found against the consumer/producer tables of the input
    graph; a node already claimed by an earlier group disqualifies a
    later one, which is what rebuilding the tables after every group
    would decide (a claimed producer becomes a fused node or vanishes,
    and a claimed reader turns into a fused reader).
    """
    consumers = graph.consumers()
    producers = graph.producers()
    claimed: set[int] = set()
    rewrites: list[tuple[list[Node], Node]] = []
    size = len(graph.nodes)
    for node in list(graph.nodes):
        if node.op_type != "softmax":
            continue
        # A softmax or scale is only ever claimed by the group of the
        # softmax itself; only the matmuls at either end can already
        # belong to an earlier group.
        scale = producers.get(node.inputs[0])
        if scale is None or scale.op_type not in ("mul", "div"):
            continue
        scores = producers.get(scale.inputs[0])
        if scores is None or id(scores) in claimed or scores.op_type != "matmul":
            continue
        readers = consumers.get(node.outputs[0], [])
        if (
            len(readers) != 1
            or id(readers[0]) in claimed
            or readers[0].op_type != "matmul"
        ):
            continue
        context = readers[0]
        # All four must be single-consumer straight line.
        if any(
            len(consumers.get(member.outputs[0], [])) != 1
            for member in (scores, scale)
        ):
            continue
        group = [scores, scale, node, context]
        # Each earlier group shrank the list by three nodes.
        fused_node = _fuse_nodes(group, index=size - 2 * len(rewrites))
        fused_node.attrs["pattern"] = "attention"
        rewrites.append((group, fused_node))
        claimed.update(id(member) for member in group)
    _splice(graph, rewrites)
    return len(rewrites)


def fuse_operators(graph: Graph, enable: bool = True) -> FusionReport:
    """Run the full expert-rule fusion pipeline, in place."""
    before = len(graph.nodes)
    if not enable:
        return FusionReport(
            groups=0, nodes_fused=0, nodes_before=before, nodes_after=before
        )
    attention_groups = fuse_attention(graph)

    consumers = graph.consumers()
    claimed: set[str] = set()
    groups: list[list[Node]] = []
    for node in graph.topological_nodes():
        if node.name in claimed or node.op_type == "fused":
            continue
        category = spec(node.op_type).category
        if category in ANCHOR_CATEGORIES or category in FUSABLE_EPILOGUES:
            chain = _single_consumer_chain(graph, node, consumers)
            chain = [member for member in chain if member.name not in claimed]
            if len(chain) >= 2:
                groups.append(chain)
                claimed.update(member.name for member in chain)

    _splice(
        graph,
        [(group, _fuse_nodes(group, index)) for index, group in enumerate(groups)],
    )

    nodes_fused = sum(len(group) for group in groups) + attention_groups * 4
    return FusionReport(
        groups=len(groups) + attention_groups,
        nodes_fused=nodes_fused,
        nodes_before=before,
        nodes_after=len(graph.nodes),
    )


def fused_members(node: Node) -> list[Node]:
    """Reconstruct the member nodes of a fused node."""
    if node.op_type != "fused":
        return [node]
    return [
        Node(
            name=member["name"],
            op_type=member["op_type"],
            inputs=list(member["inputs"]),
            outputs=list(member["outputs"]),
            attrs=dict(member["attrs"]),
        )
        for member in node.attrs["members"]
    ]
