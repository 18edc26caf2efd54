"""Graph intermediate representation for the TopsInference compiler.

A :class:`Graph` is a DAG of :class:`Node` operations over named tensors,
the shape every framework importer lowers to (paper Fig. 11: ONNX models
convert into this IR, get optimized, then lower to kernels).

Dynamic shapes (§V-B "Dynamic tensor and shape inference have been
supported") are first-class: a dimension may be a string symbol ("batch",
"seq") that stays symbolic through shape inference until bound.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace

import networkx as nx

from repro.core.datatypes import DType

Dim = int | str
Shape = tuple[Dim, ...]


class GraphError(ValueError):
    """The graph is structurally invalid."""


class GraphValidationError(GraphError):
    """A structural invariant is violated; carries node/tensor provenance.

    Every checker in :meth:`Graph.validate` raises a subclass of this, so
    callers can catch the family while error messages (and the ``node`` /
    ``tensor`` attributes) pinpoint the offending graph element — the
    contract the differential fuzzer (:mod:`repro.graph.fuzz`) enforces:
    malformed input must never surface as a bare ``KeyError`` or
    ``IndexError``.
    """

    def __init__(self, message: str, node: str | None = None,
                 tensor: str | None = None) -> None:
        super().__init__(message)
        self.node = node
        self.tensor = tensor


class GraphCycleError(GraphValidationError):
    """The dataflow graph contains a cycle."""


class UndefinedTensorError(GraphValidationError):
    """A node reads a tensor nothing produces or declares."""


class DuplicateProducerError(GraphValidationError):
    """One tensor is written by more than one producer."""


class DuplicateNodeError(GraphValidationError):
    """Two nodes share a name, breaking provenance and fusion bookkeeping."""


class UnproducedOutputError(GraphValidationError):
    """A declared graph output is never produced."""


class UntypedTensorError(GraphValidationError):
    """A graph input (or initializer in use) has no declared tensor type."""


class TensorRefError(GraphValidationError):
    """A node references a tensor by something other than a non-empty str."""


class SignatureError(GraphValidationError):
    """A node violates its operator signature (arity, dtype, rank, attrs)."""


def _canonical(value) -> str:
    """Deterministic text form of a value for hashing.

    Dicts serialize in sorted key order and sets as sorted lists, so the
    result does not depend on insertion order or ``PYTHONHASHSEED``.
    """
    kind = type(value)
    if kind is str or kind is int or kind is bool or value is None:
        return f"{kind.__name__}:{value!r}"
    if isinstance(value, dict):
        return _canonical_dict(value, _canonical)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_canonical(item) for item in value]) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(item) for item in value)) + "}"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, TensorType):
        return _canonical_type(value)
    if isinstance(value, float):
        return repr(value)
    return f"{type(value).__name__}:{value!r}"


def _canonical_dict(value: dict, encode) -> str:
    """:func:`_canonical` of a dict whose values ``encode`` serializes."""
    return "{" + ",".join(
        [f"{_canonical(key)}:{encode(value[key])}" for key in sorted(value)]
    ) + "}"


def _canonical_names(names: list) -> str:
    """:func:`_canonical` of a list of tensor names."""
    return "[" + ",".join(
        [f"str:{name!r}" if type(name) is str else _canonical(name)
         for name in names]
    ) + "]"


def _canonical_type(value: "TensorType") -> str:
    """:func:`_canonical` of a tensor type."""
    dims = ",".join(
        [f"int:{dim!r}" if type(dim) is int else _canonical(dim)
         for dim in value.shape]
    )
    return f"TensorType([{dims}],{value.dtype.name})"


@dataclass(frozen=True)
class TensorType:
    """Element type + (possibly symbolic) shape of one tensor."""

    shape: Shape
    dtype: DType = DType.FP32

    def __post_init__(self) -> None:
        for dim in self.shape:
            if isinstance(dim, int) and dim < 0:
                raise GraphError(f"negative dimension in {self.shape}")
            if isinstance(dim, str) and not dim:
                raise GraphError("empty symbolic dimension name")

    @property
    def is_static(self) -> bool:
        return all(isinstance(dim, int) for dim in self.shape)

    @property
    def rank(self) -> int:
        return len(self.shape)

    def num_elements(self) -> int:
        """Element count; raises on symbolic shapes."""
        if not self.is_static:
            raise GraphError(f"shape {self.shape} is symbolic; bind it first")
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    def nbytes(self) -> int:
        return self.num_elements() * self.dtype.bytes

    def bind(self, bindings: dict[str, int]) -> "TensorType":
        """Substitute symbolic dims; unknown symbols stay symbolic.

        A static type has nothing to substitute and is returned as is
        (the dataclass is frozen, so sharing it is safe).
        """
        if self.is_static:
            return self
        shape = tuple(
            bindings.get(dim, dim) if isinstance(dim, str) else dim
            for dim in self.shape
        )
        return replace(self, shape=shape)


@dataclass
class Node:
    """One operation instance."""

    name: str
    op_type: str
    inputs: list[str]
    outputs: list[str]
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("node needs a name")
        if not self.outputs:
            raise GraphError(f"node {self.name} produces no outputs")
        for tensor in (*self.inputs, *self.outputs):
            if not isinstance(tensor, str) or not tensor:
                raise TensorRefError(
                    f"node {self.name!r} references tensor {tensor!r}; "
                    "tensor refs must be non-empty strings",
                    node=self.name,
                )

    def attr(self, key: str, default=None):
        return self.attrs.get(key, default)


@dataclass
class Graph:
    """A dataflow graph: nodes over named tensors.

    ``tensor_types`` holds the type of every graph input and (after shape
    inference) every intermediate; ``initializers`` names the weight tensors
    (their types also live in ``tensor_types``).
    """

    name: str
    nodes: list[Node] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    tensor_types: dict[str, TensorType] = field(default_factory=dict)
    initializers: set[str] = field(default_factory=set)

    # -- structure ----------------------------------------------------------

    def node_by_name(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise GraphError(f"no node named {name!r}")

    def producers(self) -> dict[str, Node]:
        """tensor name -> the node that writes it."""
        table: dict[str, Node] = {}
        for node in self.nodes:
            for output in node.outputs:
                if output in table:
                    raise DuplicateProducerError(
                        f"tensor {output!r} produced twice "
                        f"({table[output].name} and {node.name})",
                        node=node.name,
                        tensor=output,
                    )
                table[output] = node
        return table

    def consumers(self) -> dict[str, list[Node]]:
        """tensor name -> nodes that read it."""
        table: dict[str, list[Node]] = {}
        for node in self.nodes:
            for tensor in node.inputs:
                table.setdefault(tensor, []).append(node)
        return table

    def to_networkx(self) -> nx.DiGraph:
        digraph = nx.DiGraph()
        producers = self.producers()
        for node in self.nodes:
            digraph.add_node(node.name)
        for node in self.nodes:
            for tensor in node.inputs:
                producer = producers.get(tensor)
                if producer is not None:
                    digraph.add_edge(producer.name, node.name, tensor=tensor)
        return digraph

    def topological_nodes(self) -> list[Node]:
        """Nodes in execution order; raises on cycles.

        The order is exactly ``nx.topological_sort(self.to_networkx())``:
        Kahn's algorithm one generation at a time, seeding with the
        zero-in-degree nodes in first-seen order, visiting each node's
        successors in the order their first edge appears, and counting a
        consumer that reads one producer twice as one edge. Walking the
        growing ``order`` list front to back is that generation sweep.
        Nodes are keyed by name, as in the networkx graph; networkx only
        names the cycle on the error path.
        """
        producers = self.producers()
        by_name: dict[str, Node] = {}
        successors: dict[str, dict[str, None]] = {}
        for node in self.nodes:
            by_name[node.name] = node
            successors.setdefault(node.name, {})
        indegree = dict.fromkeys(successors, 0)
        for node in self.nodes:
            name = node.name
            for tensor in node.inputs:
                producer = producers.get(tensor)
                if producer is not None:
                    children = successors[producer.name]
                    if name not in children:
                        children[name] = None
                        indegree[name] += 1
        order = [name for name, degree in indegree.items() if degree == 0]
        for name in order:  # the list grows as nodes become ready
            for child in successors[name]:
                indegree[child] -= 1
                if not indegree[child]:
                    order.append(child)
        if len(order) != len(indegree):
            digraph = self.to_networkx()
            try:
                members = [edge[0] for edge in nx.find_cycle(digraph)]
            except nx.NetworkXNoCycle:  # pragma: no cover - leftover => cycle
                members = []
            raise GraphCycleError(
                f"graph {self.name!r} contains a cycle through "
                f"{' -> '.join(members)}",
                node=members[0] if members else None,
            ) from None
        return [by_name[name] for name in order]

    def validate(self, signatures: bool = False) -> None:
        """Check structural invariants; raises :class:`GraphValidationError`.

        The base check covers connectivity: non-string tensor refs,
        duplicate node names, duplicate producers, undefined inputs,
        unproduced outputs, untyped graph inputs and cycles. With
        ``signatures=True`` every non-fused node is additionally checked
        against its registered operator signature — arity, attribute
        sanity, and dtype/rank/static-shape agreement between what the op
        infers and what ``tensor_types`` declares — so a corrupted graph
        fails here with node provenance instead of crashing deep inside
        lowering. The compile pipeline
        (:func:`repro.compiler.pipeline.compile_graph`) and the importer
        (:func:`repro.graph.onnx_like.import_graph`) run the full check.
        """
        seen_names: set[str] = set()
        for node in self.nodes:
            if node.name in seen_names:
                raise DuplicateNodeError(
                    f"two nodes named {node.name!r}; node names must be "
                    "unique",
                    node=node.name,
                )
            seen_names.add(node.name)
            for tensor in (*node.inputs, *node.outputs):
                if not isinstance(tensor, str) or not tensor:
                    raise TensorRefError(
                        f"node {node.name!r} references tensor {tensor!r}; "
                        "tensor refs must be non-empty strings",
                        node=node.name,
                    )
        producers = self.producers()
        for tensor, node in producers.items():
            if tensor in self.inputs or tensor in self.initializers:
                raise DuplicateProducerError(
                    f"node {node.name!r} writes {tensor!r}, which is already "
                    "a graph input or initializer",
                    node=node.name,
                    tensor=tensor,
                )
        available = set(self.inputs) | self.initializers | set(producers)
        for node in self.nodes:
            for tensor in node.inputs:
                if tensor not in available:
                    raise UndefinedTensorError(
                        f"node {node.name!r} reads undefined tensor {tensor!r}",
                        node=node.name,
                        tensor=tensor,
                    )
        for tensor in self.outputs:
            if tensor not in available:
                raise UnproducedOutputError(
                    f"graph output {tensor!r} is never produced",
                    tensor=tensor,
                )
        for tensor in self.inputs:
            if tensor not in self.tensor_types:
                raise UntypedTensorError(
                    f"graph input {tensor!r} has no declared type",
                    tensor=tensor,
                )
        self.topological_nodes()  # cycle check
        if signatures:
            self._validate_signatures()

    def _validate_signatures(self) -> None:
        """Per-node op-signature check (arity, attrs, dtype/rank agreement).

        Nodes whose input types are not all declared yet are skipped (shape
        inference is the pass that fills them in); fused nodes are skipped
        because their members were checked before fusion.
        """
        from repro.graph.ops import infer_node  # deferred: ops imports ir

        for node in self.nodes:
            if node.op_type == "fused":
                continue
            if any(name not in self.tensor_types for name in node.inputs):
                continue
            input_types = [self.tensor_types[name] for name in node.inputs]
            try:
                inferred = infer_node(node, input_types)
            except GraphValidationError:
                raise
            except GraphError as error:
                raise SignatureError(
                    f"node {node.name!r} ({node.op_type}): {error}",
                    node=node.name,
                ) from error
            except Exception as error:
                raise SignatureError(
                    f"node {node.name!r} ({node.op_type}) signature check "
                    f"failed: {error!r}",
                    node=node.name,
                ) from error
            for name, tensor_type in zip(node.outputs, inferred):
                declared = self.tensor_types.get(name)
                if declared is None:
                    continue
                if (
                    declared.dtype is not tensor_type.dtype
                    or declared.rank != tensor_type.rank
                    or (
                        declared.is_static
                        and tensor_type.is_static
                        and declared.shape != tensor_type.shape
                    )
                ):
                    raise SignatureError(
                        f"node {node.name!r} ({node.op_type}) output "
                        f"{name!r} infers as {tensor_type} but is declared "
                        f"as {declared}",
                        node=node.name,
                        tensor=name,
                    )

    # -- convenience ----------------------------------------------------------

    def tensor_type(self, name: str) -> TensorType:
        if name not in self.tensor_types:
            raise GraphError(
                f"tensor {name!r} has no type; run shape inference first"
            )
        return self.tensor_types[name]

    def weight_bytes(self) -> int:
        """Total parameter footprint (static shapes only)."""
        return sum(
            self.tensor_types[name].nbytes()
            for name in self.initializers
            if name in self.tensor_types
        )

    def structural_hash(self) -> str:
        """Content hash of everything that affects compilation.

        Covers node structure (names, op types, connectivity, attributes),
        graph inputs/outputs, tensor types (so shape bindings change the
        hash) and the initializer set — but not Python object identity, so
        two independently built but identical graphs collide on purpose.
        The digest is stable across processes (no reliance on ``hash()``
        or dict iteration order), which is what lets
        :class:`repro.caching.CompileCache` address compiled models by
        content.
        """
        parts = [_canonical(self.name)]
        for node in self.nodes:
            parts.append(
                f"[{_canonical(node.name)},{_canonical(node.op_type)},"
                f"{_canonical_names(node.inputs)},"
                f"{_canonical_names(node.outputs)},{_canonical(node.attrs)}]"
            )
        parts.append(_canonical_names(self.inputs))
        parts.append(_canonical_names(self.outputs))
        parts.append(_canonical_dict(self.tensor_types, _canonical_type))
        parts.append(_canonical(self.initializers))
        return hashlib.sha256("".join(parts).encode()).hexdigest()

    def bind(self, bindings: dict[str, int]) -> "Graph":
        """Return a copy with symbolic dimensions substituted.

        Substitution covers tensor types *and* shape-valued node attributes
        (a reshape target may carry a symbolic batch dim).
        """

        def _bind_attrs(attrs: dict) -> dict:
            bound = dict(attrs)
            if isinstance(bound.get("shape"), tuple):
                bound["shape"] = tuple(
                    bindings.get(dim, dim) if isinstance(dim, str) else dim
                    for dim in bound["shape"]
                )
            return bound

        return Graph(
            name=self.name,
            nodes=[
                Node(
                    name=node.name,
                    op_type=node.op_type,
                    inputs=list(node.inputs),
                    outputs=list(node.outputs),
                    attrs=_bind_attrs(node.attrs),
                )
                for node in self.nodes
            ],
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            tensor_types={
                name: tensor_type.bind(bindings)
                for name, tensor_type in self.tensor_types.items()
            },
            initializers=set(self.initializers),
        )
