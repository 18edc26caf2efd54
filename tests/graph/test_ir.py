"""Unit tests for the graph IR."""

import random

import networkx as nx
import pytest

from repro.core.datatypes import DType
from repro.graph.fuzz import generate_graph
from repro.graph.ir import Graph, GraphCycleError, GraphError, Node, TensorType
from repro.graph.passes import optimize
from repro.graph.shape_inference import bind_shapes
from repro.models import zoo


class TestTensorType:
    def test_static_properties(self):
        tensor_type = TensorType((2, 3, 4), DType.FP16)
        assert tensor_type.is_static
        assert tensor_type.rank == 3
        assert tensor_type.num_elements() == 24
        assert tensor_type.nbytes() == 48

    def test_symbolic_dims(self):
        tensor_type = TensorType(("batch", 3, 224, 224))
        assert not tensor_type.is_static
        with pytest.raises(GraphError):
            tensor_type.num_elements()

    def test_bind_substitutes(self):
        tensor_type = TensorType(("batch", "seq", 64))
        bound = tensor_type.bind({"batch": 2, "seq": 128})
        assert bound.shape == (2, 128, 64)

    def test_bind_of_a_static_type_is_the_type(self):
        tensor_type = TensorType((2, 3))
        assert tensor_type.bind({"batch": 2}) is tensor_type

    def test_bind_partial_leaves_symbols(self):
        tensor_type = TensorType(("batch", "seq"))
        bound = tensor_type.bind({"batch": 2})
        assert bound.shape == (2, "seq")

    def test_negative_dim_rejected(self):
        with pytest.raises(GraphError):
            TensorType((2, -1))

    def test_empty_symbol_rejected(self):
        with pytest.raises(GraphError):
            TensorType(("", 2))


class TestNode:
    def test_requires_name_and_outputs(self):
        with pytest.raises(GraphError):
            Node(name="", op_type="relu", inputs=["x"], outputs=["y"])
        with pytest.raises(GraphError):
            Node(name="n", op_type="relu", inputs=["x"], outputs=[])

    def test_attr_default(self):
        node = Node(name="n", op_type="conv2d", inputs=[], outputs=["y"],
                    attrs={"stride": 2})
        assert node.attr("stride") == 2
        assert node.attr("pad", 0) == 0


def _diamond_graph():
    """x -> a -> (b, c) -> d"""
    graph = Graph(name="diamond", inputs=["x"], outputs=["d.out"])
    graph.tensor_types["x"] = TensorType((4,))
    graph.nodes = [
        Node("a", "relu", ["x"], ["a.out"]),
        Node("b", "relu", ["a.out"], ["b.out"]),
        Node("c", "relu", ["a.out"], ["c.out"]),
        Node("d", "add", ["b.out", "c.out"], ["d.out"]),
    ]
    return graph


class TestGraphStructure:
    def test_producers_and_consumers(self):
        graph = _diamond_graph()
        assert graph.producers()["a.out"].name == "a"
        assert {node.name for node in graph.consumers()["a.out"]} == {"b", "c"}

    def test_duplicate_producer_rejected(self):
        graph = _diamond_graph()
        graph.nodes.append(Node("dup", "relu", ["x"], ["a.out"]))
        with pytest.raises(GraphError):
            graph.producers()

    def test_topological_order_respects_edges(self):
        graph = _diamond_graph()
        order = [node.name for node in graph.topological_nodes()]
        assert order.index("a") < order.index("b")
        assert order.index("a") < order.index("c")
        assert order.index("d") == 3

    def test_cycle_detected(self):
        graph = _diamond_graph()
        graph.nodes.append(Node("evil", "add", ["d.out", "x"], ["evil.out"]))
        graph.nodes[0].inputs = ["evil.out"]
        graph.inputs = []
        graph.tensor_types = {}
        with pytest.raises(GraphError):
            graph.topological_nodes()

    def test_validate_catches_undefined_input(self):
        graph = _diamond_graph()
        graph.nodes[0].inputs = ["ghost"]
        with pytest.raises(GraphError):
            graph.validate()

    def test_validate_catches_unproduced_output(self):
        graph = _diamond_graph()
        graph.outputs = ["missing"]
        with pytest.raises(GraphError):
            graph.validate()

    def test_validate_requires_input_types(self):
        graph = _diamond_graph()
        graph.tensor_types = {}
        with pytest.raises(GraphError):
            graph.validate()

    def test_node_by_name(self):
        graph = _diamond_graph()
        assert graph.node_by_name("c").op_type == "relu"
        with pytest.raises(GraphError):
            graph.node_by_name("zzz")

    def test_networkx_export(self):
        digraph = _diamond_graph().to_networkx()
        assert digraph.number_of_nodes() == 4
        assert digraph.number_of_edges() == 4


class TestGraphBind:
    def test_bind_copies(self):
        graph = _diamond_graph()
        graph.tensor_types["x"] = TensorType(("batch",))
        bound = graph.bind({"batch": 7})
        assert bound.tensor_types["x"].shape == (7,)
        assert graph.tensor_types["x"].shape == ("batch",)

    def test_bind_rewrites_shape_attrs(self):
        graph = _diamond_graph()
        graph.nodes[0].attrs["shape"] = ("batch", 4)
        bound = graph.bind({"batch": 2})
        assert bound.nodes[0].attrs["shape"] == (2, 4)

    def test_weight_bytes_counts_initializers(self):
        graph = _diamond_graph()
        graph.initializers = {"w"}
        graph.tensor_types["w"] = TensorType((10, 10), DType.FP32)
        assert graph.weight_bytes() == 400


def _networkx_order(graph):
    """The reference order: a networkx sort mapped back to nodes."""
    by_name = {node.name: node for node in graph.nodes}
    return [by_name[name] for name in nx.topological_sort(graph.to_networkx())]


def _assert_networkx_order(graph):
    got = graph.topological_nodes()
    want = _networkx_order(graph)
    assert [node.name for node in got] == [node.name for node in want]
    assert all(a is b for a, b in zip(got, want))


def _chain_graph(name, nodes):
    graph = Graph(name=name, inputs=["x"], outputs=[nodes[-1].outputs[0]])
    graph.tensor_types["x"] = TensorType((4,))
    graph.nodes = nodes
    return graph


class TestTopologicalOrderOracle:
    """``topological_nodes`` is exactly the networkx sort, node for node."""

    @pytest.mark.parametrize("name", zoo.MODEL_NAMES)
    def test_zoo_raw_bound_and_optimized(self, name):
        graph = zoo.build(name)
        bound = bind_shapes(graph, batch=1)
        fused, _report = optimize(bound.bind({}), fusion=True)
        unfused, _report = optimize(bound.bind({}), fusion=False)
        for candidate in (graph, bound, fused, unfused):
            _assert_networkx_order(candidate)

    @pytest.mark.parametrize("seed", range(40))
    def test_fuzz_graphs_in_any_list_order(self, seed):
        _family, graph = generate_graph(seed, 0)
        _assert_networkx_order(graph)
        shuffled = graph.bind({})
        random.Random(seed).shuffle(shuffled.nodes)
        _assert_networkx_order(shuffled)

    def test_duplicate_edge_counts_once(self):
        graph = _chain_graph("dup", [
            Node("a", "relu", ["x"], ["a.out"]),
            Node("b", "add", ["a.out", "a.out"], ["b.out"]),
            Node("c", "relu", ["x"], ["c.out"]),
            Node("d", "add", ["b.out", "c.out"], ["d.out"]),
        ])
        assert [node.name for node in graph.topological_nodes()] == [
            "a", "c", "b", "d",
        ]
        _assert_networkx_order(graph)

    def test_producers_listed_after_their_consumer(self):
        graph = _chain_graph("backwards", [
            Node("d", "add", ["c.out", "b.out"], ["d.out"]),
            Node("c", "relu", ["a.out"], ["c.out"]),
            Node("b", "relu", ["x"], ["b.out"]),
            Node("a", "relu", ["x"], ["a.out"]),
        ])
        assert [node.name for node in graph.topological_nodes()] == [
            "b", "a", "c", "d",
        ]
        _assert_networkx_order(graph)

    def test_self_loop_names_the_node(self):
        graph = _chain_graph("loop", [
            Node("a", "relu", ["x"], ["a.out"]),
            Node("s", "add", ["a.out", "s.out"], ["s.out"]),
        ])
        with pytest.raises(GraphCycleError) as caught:
            graph.topological_nodes()
        assert str(caught.value) == "graph 'loop' contains a cycle through s"
        assert caught.value.node == "s"

    def test_longer_cycle_names_its_path(self):
        graph = _chain_graph("ring", [
            Node("entry", "relu", ["x"], ["entry.out"]),
            Node("b", "add", ["entry.out", "d.out"], ["b.out"]),
            Node("c", "relu", ["b.out"], ["c.out"]),
            Node("d", "relu", ["c.out"], ["d.out"]),
            Node("tail", "relu", ["d.out"], ["tail.out"]),
        ])
        with pytest.raises(GraphCycleError) as caught:
            graph.topological_nodes()
        assert str(caught.value) == (
            "graph 'ring' contains a cycle through b -> c -> d"
        )
        assert caught.value.node == "b"
