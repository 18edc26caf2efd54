"""Unit tests for operator fusion and the pass pipeline (§V-B)."""

import random

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.fusion import (
    ANCHOR_CATEGORIES,
    FUSABLE_EPILOGUES,
    MAX_FUSION_LENGTH,
    _fuse_nodes,
    _single_consumer_chain,
    _splice,
    fuse_operators,
    fused_members,
)
from repro.graph.fuzz import generate_graph
from repro.graph.ir import Graph, Node
from repro.graph.ops import spec
from repro.graph.passes import dead_code_elimination, eliminate_identities, optimize
from repro.graph.shape_inference import bind_shapes


def _conv_bn_relu_graph():
    builder = GraphBuilder("g")
    x = builder.input("x", (1, 3, 32, 32))
    y = builder.conv2d(x, 8, 3, pad=1)
    y = builder.batch_norm(y)
    y = builder.relu(y)
    return builder.finish([y])


class TestEpilogueFusion:
    def test_conv_bn_relu_becomes_one_kernel(self):
        graph = _conv_bn_relu_graph()
        report = fuse_operators(graph)
        assert report.groups == 1
        assert report.nodes_fused == 3
        assert len(graph.nodes) == 1
        assert graph.nodes[0].op_type == "fused"
        assert graph.nodes[0].attrs["anchor"] == "conv2d"

    def test_fused_graph_still_validates(self):
        graph = _conv_bn_relu_graph()
        fuse_operators(graph)
        graph.validate()

    def test_internal_tensors_recorded(self):
        graph = _conv_bn_relu_graph()
        fuse_operators(graph)
        internal = graph.nodes[0].attrs["internal_tensors"]
        assert len(internal) == 2  # conv out + bn out no longer materialize

    def test_members_reconstructible(self):
        graph = _conv_bn_relu_graph()
        fuse_operators(graph)
        members = fused_members(graph.nodes[0])
        assert [member.op_type for member in members] == [
            "conv2d", "batch_norm", "relu",
        ]

    def test_disabled_fusion_is_identity(self):
        graph = _conv_bn_relu_graph()
        report = fuse_operators(graph, enable=False)
        assert report.groups == 0
        assert len(graph.nodes) == 3

    def test_multi_consumer_blocks_fusion(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 3, 8, 8))
        conv = builder.conv2d(x, 4, 3, pad=1)
        a = builder.relu(conv)
        b = builder.sigmoid(conv)  # second consumer of conv output
        graph = builder.finish([a, b])
        fuse_operators(graph)
        anchors = [node for node in graph.nodes if node.op_type == "fused"]
        # conv cannot absorb either activation; at most eltwise chains fuse
        assert all(node.attrs["anchor"] != "conv2d" for node in anchors)

    def test_graph_output_not_fused_past(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 3, 8, 8))
        conv = builder.conv2d(x, 4, 3, pad=1)
        act = builder.relu(conv)
        graph = builder.finish([conv, act])  # conv output is a graph output
        fuse_operators(graph)
        graph.validate()
        assert any(node.op_type == "conv2d" for node in graph.nodes)

    def test_fusion_length_capped(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (64,))
        y = builder.dense(x, 64)
        for _ in range(2 * MAX_FUSION_LENGTH):
            y = builder.relu(y)
        graph = builder.finish([y])
        fuse_operators(graph)
        for node in graph.nodes:
            assert len(fused_members(node)) <= MAX_FUSION_LENGTH

    def test_elementwise_chains_fuse_without_anchor(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (64,))
        y = builder.relu(x)
        y = builder.sigmoid(y)
        y = builder.tanh(y)
        graph = builder.finish([y])
        report = fuse_operators(graph)
        assert report.groups == 1 and len(graph.nodes) == 1


class TestAttentionFusion:
    def test_mha_pattern_fuses(self):
        builder = GraphBuilder("g")
        tokens = builder.input("t", (1, 16, 64))
        out = builder.multi_head_attention(tokens, heads=4)
        graph = builder.finish([out])
        fuse_operators(graph)
        attention = [
            node for node in graph.nodes if node.attrs.get("pattern") == "attention"
        ]
        assert len(attention) == 1
        assert [member.op_type for member in fused_members(attention[0])] == [
            "matmul", "mul", "softmax", "matmul",
        ]
        graph.validate()

    def test_bert_layer_fuses_24_attention_blocks(self):
        from repro.models import build

        graph = bind_shapes(build("bert_large"), batch=1)
        fuse_operators(graph)
        attention = [
            node for node in graph.nodes if node.attrs.get("pattern") == "attention"
        ]
        assert len(attention) == 24


class TestPasses:
    def test_identity_elimination_rewires(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (4,))
        y = builder.identity(x)
        z = builder.relu(y)
        graph = builder.finish([z])
        eliminate_identities(graph)
        assert all(node.op_type != "identity" for node in graph.nodes)
        graph.validate()

    def test_identity_as_output_rewires_output(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (4,))
        y = builder.relu(x)
        z = builder.identity(y)
        graph = builder.finish([z])
        eliminate_identities(graph)
        graph.validate()
        assert graph.outputs == [y]

    def test_dce_removes_unused_branch(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (4,))
        keep = builder.relu(x)
        builder.sigmoid(x)  # dead
        graph = builder.finish([keep])
        dead_code_elimination(graph)
        assert len(graph.nodes) == 1

    def test_optimize_pipeline_returns_report(self):
        graph = _conv_bn_relu_graph()
        optimized, report = optimize(graph)
        assert report.groups >= 1
        assert report.nodes_after < report.nodes_before
        optimized.validate()

    def test_fusable_epilogues_are_cheap_categories(self):
        assert "conv" not in FUSABLE_EPILOGUES
        assert "gemm" not in FUSABLE_EPILOGUES


def _splice_one_at_a_time(nodes, rewrites):
    """The reference rewrite: index, remove and insert per group."""
    nodes = list(nodes)
    for group, fused in rewrites:
        position = nodes.index(group[0])
        for member in group:
            nodes.remove(member)
        nodes.insert(position, fused)
    return nodes


class TestSplice:
    """``_splice`` rewrites the node list as the per-group edits would."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_per_group_edits(self, seed):
        rng = random.Random(seed)
        nodes = [
            Node(f"n{index}", "relu", ["x"], [f"n{index}.out"])
            for index in range(rng.randrange(1, 30))
        ]
        free = list(nodes)
        rng.shuffle(free)
        rewrites = []
        while free and rng.random() < 0.8:
            group = [free.pop() for _ in range(min(len(free), rng.randrange(1, 6)))]
            fused = Node(f"f{len(rewrites)}", "fused", [], [f"f{len(rewrites)}.out"])
            rewrites.append((group, fused))
        graph = Graph(name="g", nodes=list(nodes))
        _splice(graph, rewrites)
        want = _splice_one_at_a_time(nodes, rewrites)
        assert [node.name for node in graph.nodes] == [node.name for node in want]
        assert all(got is node for got, node in zip(graph.nodes, want))


def _fuse_one_group_at_a_time(graph):
    """Reference fusion: rebuild the tables and edit the list per group."""
    consumers, producers = graph.consumers(), graph.producers()
    attention = 0
    for node in list(graph.nodes):
        if node.op_type != "softmax" or node not in graph.nodes:
            continue
        scale = producers.get(node.inputs[0])
        if scale is None or scale.op_type not in ("mul", "div"):
            continue
        scores = producers.get(scale.inputs[0])
        if scores is None or scores.op_type != "matmul":
            continue
        readers = consumers.get(node.outputs[0], [])
        if len(readers) != 1 or readers[0].op_type != "matmul":
            continue
        if any(len(consumers.get(m.outputs[0], [])) != 1 for m in (scores, scale)):
            continue
        group = [scores, scale, node, readers[0]]
        fused = _fuse_nodes(group, index=len(graph.nodes) + attention)
        fused.attrs["pattern"] = "attention"
        graph.nodes = _splice_one_at_a_time(graph.nodes, [(group, fused)])
        consumers, producers = graph.consumers(), graph.producers()
        attention += 1
    consumers = graph.consumers()
    claimed, groups = set(), []
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
    graph.nodes = _splice_one_at_a_time(
        graph.nodes,
        [(group, _fuse_nodes(group, index)) for index, group in enumerate(groups)],
    )
    return graph


def _attention_block(prefix, source, extra_reader=False):
    """scores -> scale -> softmax -> context over ``source``."""
    nodes = [
        Node(f"{prefix}.scores", "matmul", [source, "k"], [f"{prefix}.s"]),
        Node(f"{prefix}.scale", "mul", [f"{prefix}.s", "c"], [f"{prefix}.m"]),
        Node(f"{prefix}.softmax", "softmax", [f"{prefix}.m"], [f"{prefix}.p"]),
        Node(f"{prefix}.context", "matmul", [f"{prefix}.p", "v"], [f"{prefix}.o"]),
    ]
    if extra_reader:
        nodes.append(Node(f"{prefix}.peek", "relu", [f"{prefix}.m"], [f"{prefix}.q"]))
    return nodes


class TestFusionMatchesPerGroupRewrites:
    """One-pass fusion equals rebuilding the tables after every group."""

    def _check(self, graph):
        want = _fuse_one_group_at_a_time(graph.bind({}))
        fuse_operators(graph)
        assert graph.structural_hash() == want.structural_hash()

    @pytest.mark.parametrize("seed", range(40))
    def test_fuzz_graphs_in_any_list_order(self, seed):
        _family, graph = generate_graph(seed, 0)
        self._check(graph.bind({}))
        random.Random(seed).shuffle(graph.nodes)
        self._check(graph)

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    def test_chained_and_blocked_attention(self, order):
        # b's scores is a's context, so a and b overlap and whichever
        # softmax comes first in the list wins; c's scale has a second
        # reader, so c never fuses as attention. In reversed order a's
        # epilogue chain ends at the fused b node and must stop there.
        nodes = [
            *_attention_block("a", "x"),
            *_attention_block("b", "a.s")[1:],
            *_attention_block("c", "x", extra_reader=True),
        ]
        nodes[4].inputs[0] = "a.o"
        if order == "reversed":
            nodes.reverse()
        elif order == "shuffled":
            random.Random(3).shuffle(nodes)
        graph = Graph(
            name="attn", nodes=nodes, inputs=["x", "k", "v", "c"],
            outputs=["b.o", "c.o", "c.q"],
        )
        self._check(graph)
        patterns = [node.attrs.get("pattern") for node in graph.nodes]
        assert patterns.count("attention") == 1
