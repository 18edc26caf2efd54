"""Differential graph fuzzer for the compiler pipeline.

NNSmith-style robustness tooling for the TopsInference/TopsEngine model
(paper §V-B): a seeded generator builds random *valid* graphs over the op
vocabulary, a mutator corrupts them into malformed variants, and a harness
checks the hardening invariant on every case:

    **typed error or numerically-correct compile — never a crash, never a
    silent wrong answer.**

Concretely, per case:

- the valid graph must compile through the hardened pipeline
  (:func:`repro.compiler.pipeline.compile_graph` with the fusion guard
  on), survive an export/import round trip with an identical
  ``structural_hash``, and evaluate identically before and after
  optimization (both fused-schedule flavours) on seeded inputs;
- the mutated graph must be rejected with a
  :class:`~repro.graph.ir.GraphValidationError` /
  :class:`~repro.compiler.errors.CompileError` whose message names the
  corrupted node or tensor — a bare ``KeyError``/``IndexError`` or a
  silent acceptance is an invariant violation.

Failures shrink through a delta-debugging minimizer
(:func:`minimize`) into a regression corpus (``tests/graph/corpus/``)
that CI replays. Everything is derived from labelled
:mod:`repro.seeding` streams, so one seed reproduces a byte-identical
JSON report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.compiler.errors import CompileError
from repro.compiler.pipeline import compile_graph
from repro.core.config import dtu2_config
from repro.core.datatypes import DType
from repro.graph.builder import GraphBuilder
from repro.graph.ir import Graph, GraphError, GraphValidationError
from repro.graph.onnx_like import (
    _attrs_from_json,
    _shape_from_json,
    export_graph,
    import_graph,
)
from repro.graph.passes import optimize
from repro.graph.reference import ReferenceExecutor
from repro.seeding import derive_rng

#: Exception classes the invariant accepts as "typed rejection".
TYPED_ERRORS = (GraphValidationError, CompileError, GraphError)

#: Numeric agreement required between the original and optimized graphs.
DIFF_RTOL = 1e-8
DIFF_ATOL = 1e-10


# ---------------------------------------------------------------------------
# generator: random valid graphs
# ---------------------------------------------------------------------------


def _gen_cnn(rng, index: int) -> Graph:
    builder = GraphBuilder(f"fuzz_cnn_{index}")
    channels = rng.choice([2, 3, 4])
    size = rng.choice([6, 8])
    data = builder.input("x", (1, channels, size, size))
    out = builder.conv2d(
        data, rng.choice([4, 6, 8]), kernel=3, pad=1, name="conv0"
    )
    out = builder.batch_norm(out, name="bn0")
    out = getattr(builder, rng.choice(["relu", "gelu", "swish"]))(
        out, name="act0"
    )
    if rng.random() < 0.5:
        out = builder.max_pool(out, kernel=2)
    if rng.random() < 0.5:
        out = builder.conv2d(out, rng.choice([4, 8]), kernel=1, name="conv1")
        out = builder.relu(out, name="act1")
    out = builder.flatten(out)
    out = builder.dense(out, rng.choice([4, 10]), name="head")
    return builder.finish(outputs=[out])


def _gen_mlp(rng, index: int) -> Graph:
    builder = GraphBuilder(f"fuzz_mlp_{index}")
    features = rng.choice([8, 12, 16])
    data = builder.input("x", (2, features))
    out = data
    for layer in range(rng.choice([1, 2, 3])):
        out = builder.dense(out, rng.choice([8, 16]), name=f"fc{layer}")
        out = getattr(builder, rng.choice(["relu", "sigmoid", "tanh"]))(
            out, name=f"act{layer}"
        )
    out = builder.dense(out, 4, name="head")
    return builder.finish(outputs=[out])


def _gen_attention(rng, index: int) -> Graph:
    builder = GraphBuilder(f"fuzz_attn_{index}")
    heads = rng.choice([1, 2])
    features = heads * rng.choice([4, 8])
    seq = rng.choice([3, 4])
    data = builder.input("x", (1, seq, features))
    out = builder.multi_head_attention(data, heads=heads, name="mha")
    out = builder.layer_norm(out, name="ln")
    return builder.finish(outputs=[out])


def _gen_branchy(rng, index: int) -> Graph:
    builder = GraphBuilder(f"fuzz_branch_{index}")
    features = rng.choice([8, 16])
    data = builder.input("x", (2, features))
    trunk = builder.dense(data, features, name="trunk")
    left = builder.relu(trunk, name="left")
    right = getattr(builder, rng.choice(["sigmoid", "tanh", "neg"]))(
        trunk, name="right"
    )
    out = builder.add(left, right, name="join")
    if rng.random() < 0.5:
        out = builder.concat([out, trunk], axis=1)
    out = builder.dense(out, 4, name="head")
    return builder.finish(outputs=[out])


FAMILIES = {
    "cnn": _gen_cnn,
    "mlp": _gen_mlp,
    "attention": _gen_attention,
    "branchy": _gen_branchy,
}


def generate_graph(seed: int, index: int) -> tuple[str, Graph]:
    """One seeded random valid graph; returns (family, graph)."""
    rng = derive_rng(seed, "gen", index)
    family = rng.choice(sorted(FAMILIES))
    return family, FAMILIES[family](rng, index)


# ---------------------------------------------------------------------------
# mutator: corrupt valid graphs into malformed variants
# ---------------------------------------------------------------------------
#
# Each mutation takes (graph, rng), corrupts the graph IN PLACE, and
# returns the provenance string (a node or tensor name) that the typed
# error message must contain — or None when the mutation does not apply
# to this graph. Mutations bypass constructor checks deliberately (direct
# list/dict writes), modelling a buggy importer or pass.


def _mut_undefined_input(graph: Graph, rng) -> str | None:
    node = rng.choice(graph.nodes)
    node.inputs[rng.randrange(len(node.inputs))] = "ghost_tensor"
    return node.name


def _mut_duplicate_producer(graph: Graph, rng) -> str | None:
    if len(graph.nodes) < 2:
        return None
    first, second = sorted(rng.sample(range(len(graph.nodes)), 2))
    graph.nodes[second].outputs[0] = graph.nodes[first].outputs[0]
    return graph.nodes[first].outputs[0]


def _mut_cycle(graph: Graph, rng) -> str | None:
    node = rng.choice(graph.nodes)
    node.inputs[0] = node.outputs[0]
    return node.name


def _mut_unknown_op(graph: Graph, rng) -> str | None:
    node = rng.choice(graph.nodes)
    node.op_type = "quantum_fft"
    return node.name


def _mut_duplicate_node_name(graph: Graph, rng) -> str | None:
    if len(graph.nodes) < 2:
        return None
    first, second = sorted(rng.sample(range(len(graph.nodes)), 2))
    graph.nodes[second].name = graph.nodes[first].name
    return graph.nodes[first].name


def _mut_drop_input_type(graph: Graph, rng) -> str | None:
    tensor = rng.choice(graph.inputs)
    del graph.tensor_types[tensor]
    return tensor


def _mut_unproduced_output(graph: Graph, rng) -> str | None:
    graph.outputs.append("phantom_out")
    return "phantom_out"


def _mut_rank_mismatch(graph: Graph, rng) -> str | None:
    node = rng.choice(graph.nodes)
    name = node.outputs[0]
    declared = graph.tensor_types.get(name)
    if declared is None:
        return None
    graph.tensor_types[name] = type(declared)(
        shape=declared.shape + (7,), dtype=declared.dtype
    )
    return node.name


def _mut_bad_attr(graph: Graph, rng) -> str | None:
    candidates = [
        node
        for node in graph.nodes
        if node.op_type in ("conv2d", "conv1d", "max_pool", "avg_pool")
    ]
    if not candidates:
        return None
    node = rng.choice(candidates)
    node.attrs["stride"] = 0
    return node.name


def _mut_dtype_mismatch(graph: Graph, rng) -> str | None:
    node = rng.choice(graph.nodes)
    name = node.outputs[0]
    declared = graph.tensor_types.get(name)
    if declared is None or declared.dtype is DType.INT8:
        return None
    graph.tensor_types[name] = type(declared)(
        shape=declared.shape, dtype=DType.INT8
    )
    return node.name


def _mut_nonstring_ref(graph: Graph, rng) -> str | None:
    node = rng.choice(graph.nodes)
    node.inputs[0] = 12345  # type: ignore[call-overload]
    return node.name


MUTATIONS = {
    "undefined-input": _mut_undefined_input,
    "duplicate-producer": _mut_duplicate_producer,
    "cycle": _mut_cycle,
    "unknown-op": _mut_unknown_op,
    "duplicate-node-name": _mut_duplicate_node_name,
    "drop-input-type": _mut_drop_input_type,
    "unproduced-output": _mut_unproduced_output,
    "rank-mismatch": _mut_rank_mismatch,
    "bad-attr": _mut_bad_attr,
    "dtype-mismatch": _mut_dtype_mismatch,
    "nonstring-ref": _mut_nonstring_ref,
}


def mutate_graph(
    graph: Graph, seed: int, index: int
) -> tuple[str, Graph, str] | None:
    """Corrupt a copy of ``graph``; returns (mutation, mutant, provenance).

    The mutation is drawn from the case's labelled rng stream; mutations
    that do not apply to this particular graph are skipped in a
    deterministic order. Returns None when nothing applies (tiny graphs).
    """
    rng = derive_rng(seed, "mut", index)
    names = sorted(MUTATIONS)
    rng.shuffle(names)
    for name in names:
        mutant = graph.bind({})
        provenance = MUTATIONS[name](mutant, rng)
        if provenance is not None:
            return name, mutant, provenance
    return None


# ---------------------------------------------------------------------------
# harness: the invariant
# ---------------------------------------------------------------------------


def _seeded_inputs(graph: Graph, seed: int, index: int) -> dict[str, np.ndarray]:
    inputs = {}
    for name in graph.inputs:
        shape = tuple(graph.tensor_types[name].shape)
        rng = derive_rng(seed, "inputs", index, name)
        flat = [rng.gauss(0.0, 1.0) for _ in range(int(np.prod(shape)) or 1)]
        inputs[name] = np.array(flat, dtype=np.float64).reshape(shape)
    return inputs


def check_valid_graph(graph: Graph, seed: int, index: int) -> str | None:
    """Run the valid-graph side of the invariant; returns a violation
    description or None."""
    chip = dtu2_config()
    try:
        compile_graph(
            graph, chip, dtype=DType.FP16, fusion=True, verify_fusion=True,
            seed=seed,
        )
    except GraphError as error:
        return f"valid graph rejected: {type(error).__name__}: {error}"
    except Exception as error:
        return f"compile crashed untyped: {type(error).__name__}: {error!r}"

    try:
        roundtrip = import_graph(export_graph(graph))
    except Exception as error:
        return f"round trip failed: {type(error).__name__}: {error!r}"
    if roundtrip.structural_hash() != graph.structural_hash():
        return "round trip changed structural_hash"

    inputs = _seeded_inputs(graph, seed, index)
    try:
        baseline = ReferenceExecutor(graph, seed=seed).run(**inputs)
        optimized, _report = optimize(graph.bind({}), fusion=True)
        for flatten in (True, False):
            candidate = ReferenceExecutor(
                optimized, seed=seed, flatten_fused=flatten
            ).run(**inputs)
            for name in graph.outputs:
                if not np.allclose(
                    baseline[name], candidate[name],
                    rtol=DIFF_RTOL, atol=DIFF_ATOL, equal_nan=True,
                ):
                    return (
                        f"silent wrong answer: output {name!r} diverges "
                        f"after optimization (flatten_fused={flatten})"
                    )
    except GraphError as error:
        return f"execution rejected valid graph: {type(error).__name__}: {error}"
    except Exception as error:
        return f"execution crashed untyped: {type(error).__name__}: {error!r}"
    return None


def check_malformed_graph(graph: Graph, provenance: str) -> str | None:
    """Run the malformed side; returns a violation description or None.

    The compile attempt must raise a typed error whose message names the
    corrupted node/tensor; anything else violates the invariant.
    """
    chip = dtu2_config()
    try:
        compile_graph(graph, chip, dtype=DType.FP16, fusion=True)
    except TYPED_ERRORS as error:
        if str(provenance) not in str(error):
            return (
                f"typed error lacks provenance {provenance!r}: "
                f"{type(error).__name__}: {error}"
            )
        return None
    except Exception as error:
        return (
            f"untyped crash on malformed graph: "
            f"{type(error).__name__}: {error!r}"
        )
    return "malformed graph compiled without error (silent acceptance)"


def classify_error(graph: Graph) -> tuple[str, str] | None:
    """(error type name, message) the hardened pipeline raises, or None."""
    try:
        compile_graph(graph, dtu2_config(), dtype=DType.FP16, fusion=True)
    except Exception as error:
        return type(error).__name__, str(error)
    return None


# ---------------------------------------------------------------------------
# minimizer: shrink failures for the corpus
# ---------------------------------------------------------------------------


def minimize(graph: Graph, predicate) -> Graph:
    """Greedy delta-debugging: drop nodes while ``predicate`` still holds.

    ``predicate(candidate)`` must return True when the candidate still
    reproduces the failure (same error class + provenance). Node removal
    keeps the graph closed by re-deriving outputs from what remains; a
    removal that changes the failure signature is simply rejected.
    """
    # Lenient clone (document round trip): malformed graphs can carry
    # corruptions Node's constructor would reject, so bind({}) won't do.
    current = _graph_from_document(export_graph(graph))
    shrinking = True
    while shrinking:
        shrinking = False
        for index in range(len(current.nodes)):
            candidate = _graph_from_document(export_graph(current))
            removed = candidate.nodes.pop(index)
            produced = {
                output
                for node in candidate.nodes
                for output in node.outputs
            }
            consumed = {
                tensor for node in candidate.nodes for tensor in node.inputs
            }
            candidate.outputs = [
                name
                for name in (*candidate.outputs, *removed.inputs)
                if name in produced and name not in consumed
            ] or [
                name for name in candidate.outputs if name in produced
            ]
            try:
                still_fails = predicate(candidate)
            except Exception:
                still_fails = False
            if still_fails and candidate.nodes:
                current = candidate
                shrinking = True
                break
    return current


def minimize_failure(graph: Graph, provenance: str) -> Graph:
    """Shrink a malformed graph, preserving its typed-error signature."""
    baseline = classify_error(graph)
    if baseline is None:
        return graph

    def predicate(candidate: Graph) -> bool:
        observed = classify_error(candidate)
        return (
            observed is not None
            and observed[0] == baseline[0]
            and str(provenance) in observed[1]
        )

    return minimize(graph, predicate)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

CORPUS_DIR = Path("tests/graph/corpus")


def _graph_from_document(document: dict) -> Graph:
    """Lenient loader for corpus replay: builds the (malformed) graph
    without validating, so the replay exercises the pipeline's checks."""
    from repro.graph.ir import Node, TensorType

    graph = Graph(
        name=document["name"],
        inputs=list(document["inputs"]),
        outputs=list(document["outputs"]),
        initializers=set(document["initializers"]),
        tensor_types={
            name: TensorType(
                shape=_shape_from_json(entry["shape"]),
                dtype=DType[entry["dtype"]],
            )
            for name, entry in document["tensor_types"].items()
        },
    )
    for entry in document["nodes"]:
        node = Node.__new__(Node)  # skip __post_init__: refs may be corrupt
        node.name = entry["name"]
        node.op_type = entry["op_type"]
        node.inputs = list(entry["inputs"])
        node.outputs = list(entry["outputs"])
        node.attrs = _attrs_from_json(entry.get("attrs", {}))
        graph.nodes.append(node)
    return graph


def write_corpus(seed: int = 0, directory: Path | None = None) -> list[Path]:
    """(Re)generate one minimized corpus entry per mutation kind."""
    directory = Path(directory) if directory else CORPUS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for index, mutation in enumerate(sorted(MUTATIONS)):
        rng = derive_rng(seed, "corpus", mutation)
        provenance = None
        # Deterministically walk families until the mutation applies
        # (e.g. bad-attr needs a graph with a conv/pool node).
        for family in [rng.choice(sorted(FAMILIES))] + sorted(FAMILIES):
            graph = FAMILIES[family](rng, 9000 + index)
            provenance = MUTATIONS[mutation](graph, rng)
            if provenance is not None:
                break
        if provenance is None:  # pragma: no cover - cnn always applies
            continue
        minimized = minimize_failure(graph, provenance)
        error = classify_error(minimized)
        if error is None:  # pragma: no cover - mutations always fail
            continue
        entry = {
            "mutation": mutation,
            "error_type": error[0],
            "error_message": error[1],
            "provenance": str(provenance),
            "document": export_graph(minimized),
        }
        path = directory / f"{mutation}.json"
        path.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
        written.append(path)
    return written


def replay_corpus(directory: Path | None = None) -> list[dict]:
    """Replay every corpus entry; returns one result dict per file.

    A replay passes when the pipeline raises the recorded error type
    (taxonomy drift downgrades gracefully: any typed error still passes
    as long as the provenance survives) and the message carries the
    recorded provenance.
    """
    directory = Path(directory) if directory else CORPUS_DIR
    results = []
    for path in sorted(directory.glob("*.json")):
        entry = json.loads(path.read_text())
        graph = _graph_from_document(entry["document"])
        observed = classify_error(graph)
        if observed is None:
            status, detail = "fail", "compiled without error"
        elif entry["provenance"] not in observed[1]:
            status = "fail"
            detail = f"provenance missing from {observed[0]}: {observed[1]}"
        elif observed[0] != entry["error_type"]:
            status = "type-drift"
            detail = f"expected {entry['error_type']}, got {observed[0]}"
        else:
            status, detail = "ok", ""
        results.append(
            {
                "file": path.name,
                "mutation": entry["mutation"],
                "status": status,
                "detail": detail,
            }
        )
    return results


# ---------------------------------------------------------------------------
# campaign driver + report
# ---------------------------------------------------------------------------


@dataclass
class FuzzCase:
    """One generate→check→mutate→check round."""

    index: int
    family: str
    mutation: str | None
    violations: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "family": self.family,
            "mutation": self.mutation,
            "violations": list(self.violations),
        }


@dataclass
class FuzzReport:
    """Whole-campaign outcome; canonical JSON for byte-identical reruns."""

    seed: int
    budget: int
    cases: list[FuzzCase] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        out = []
        for case in self.cases:
            label = f"case {case.index} ({case.family}"
            if case.mutation:
                label += f", {case.mutation}"
            label += ")"
            for violation in case.violations:
                out.append(f"{label}: {violation}")
        return out

    @property
    def ok(self) -> bool:
        return not any(case.violations for case in self.cases)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "ok": self.ok,
            "families": {
                family: sum(1 for c in self.cases if c.family == family)
                for family in sorted({c.family for c in self.cases})
            },
            "mutations": {
                mutation: sum(1 for c in self.cases if c.mutation == mutation)
                for mutation in sorted(
                    {c.mutation for c in self.cases if c.mutation}
                )
            },
            "violation_count": len(self.violations),
            "cases": [case.to_dict() for case in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.seed} budget={self.budget}",
            "",
        ]
        data = self.to_dict()
        lines.append("cases per family:")
        for family, count in data["families"].items():
            lines.append(f"  {family:<12} {count}")
        lines.append("mutations exercised:")
        for mutation, count in data["mutations"].items():
            lines.append(f"  {mutation:<20} {count}")
        lines.append("")
        if self.ok:
            lines.append(
                f"PASS: {len(self.cases)} cases, zero invariant violations"
            )
        else:
            lines.append(f"FAIL: {len(self.violations)} violations")
            for violation in self.violations:
                lines.append(f"  - {violation}")
        return "\n".join(lines)


def run_fuzz(seed: int = 0, budget: int = 50) -> FuzzReport:
    """Run ``budget`` generate/mutate/check rounds; fully deterministic."""
    report = FuzzReport(seed=seed, budget=budget)
    for index in range(budget):
        family, graph = generate_graph(seed, index)
        mutated = mutate_graph(graph, seed, index)
        case = FuzzCase(
            index=index,
            family=family,
            mutation=mutated[0] if mutated else None,
        )
        violation = check_valid_graph(graph, seed, index)
        if violation:
            case.violations.append(violation)
        if mutated:
            _name, mutant, provenance = mutated
            violation = check_malformed_graph(mutant, provenance)
            if violation:
                case.violations.append(violation)
        report.cases.append(case)
    return report


__all__ = [
    "CORPUS_DIR",
    "FAMILIES",
    "MUTATIONS",
    "FuzzCase",
    "FuzzReport",
    "check_malformed_graph",
    "check_valid_graph",
    "generate_graph",
    "minimize",
    "minimize_failure",
    "mutate_graph",
    "replay_corpus",
    "run_fuzz",
    "write_corpus",
]
