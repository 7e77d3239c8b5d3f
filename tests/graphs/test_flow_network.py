"""Unit tests for the flow-network substrate (Definition 3.1)."""

import pytest

from repro.errors import GraphStructureError
from repro.graphs.flow_network import FlowNetwork


def simple_network() -> FlowNetwork:
    graph = FlowNetwork(name="toy")
    for node in ("s", "a", "b", "t"):
        graph.add_node(node)
    graph.add_edge("s", "a")
    graph.add_edge("s", "b")
    graph.add_edge("a", "t")
    graph.add_edge("b", "t")
    return graph


class TestConstruction:
    def test_add_node_defaults_label_to_str(self):
        graph = FlowNetwork()
        graph.add_node(1)
        assert graph.label(1) == "1"

    def test_add_node_with_explicit_label(self):
        graph = FlowNetwork()
        graph.add_node("3a", label="3")
        assert graph.label("3a") == "3"

    def test_readding_node_same_label_is_noop(self):
        graph = FlowNetwork()
        graph.add_node("x", "lbl")
        graph.add_node("x", "lbl")
        assert graph.num_nodes == 1

    def test_relabel_raises(self):
        graph = FlowNetwork()
        graph.add_node("x", "one")
        with pytest.raises(GraphStructureError, match="relabel"):
            graph.add_node("x", "two")

    def test_edge_requires_existing_endpoints(self):
        graph = FlowNetwork()
        graph.add_node("a")
        with pytest.raises(GraphStructureError, match="has not been added"):
            graph.add_edge("a", "missing")

    def test_parallel_edges_get_distinct_keys(self):
        graph = FlowNetwork()
        graph.add_node("u")
        graph.add_node("v")
        first = graph.add_edge("u", "v")
        second = graph.add_edge("u", "v")
        assert first != second
        assert graph.num_edges == 2

    def test_duplicate_explicit_key_raises(self):
        graph = FlowNetwork()
        graph.add_node("u")
        graph.add_node("v")
        graph.add_edge("u", "v", key=5)
        with pytest.raises(GraphStructureError, match="duplicate"):
            graph.add_edge("u", "v", key=5)

    def test_remove_edge(self):
        graph = simple_network()
        graph.remove_edge(("s", "a", 0))
        assert graph.num_edges == 3
        with pytest.raises(GraphStructureError):
            graph.remove_edge(("s", "a", 0))

    def test_edges_keep_insertion_order_through_remove_and_readd(self):
        graph = simple_network()
        before = list(graph.edges())
        graph.remove_edge(before[1])
        assert list(graph.edges()) == before[:1] + before[2:]
        graph.add_edge(*before[1])
        assert list(graph.edges()) == before[:1] + before[2:] + before[1:2]
        assert graph.num_edges == len(before)

    def test_remove_node_requires_isolation(self):
        graph = simple_network()
        with pytest.raises(GraphStructureError, match="incident"):
            graph.remove_node("a")
        graph.remove_edge(("s", "a", 0))
        graph.remove_edge(("a", "t", 0))
        graph.remove_node("a")
        assert "a" not in graph

    def test_remove_missing_node_raises(self):
        graph = FlowNetwork()
        with pytest.raises(GraphStructureError):
            graph.remove_node("ghost")


class TestInspection:
    def test_degrees_and_neighbours(self):
        graph = simple_network()
        assert graph.out_degree("s") == 2
        assert graph.in_degree("t") == 2
        assert graph.successors("s") == ["a", "b"]
        assert graph.predecessors("t") == ["a", "b"]

    def test_has_edge(self):
        graph = simple_network()
        assert graph.has_edge("s", "a")
        assert not graph.has_edge("a", "s")

    def test_label_of_missing_node_raises(self):
        graph = FlowNetwork()
        with pytest.raises(GraphStructureError):
            graph.label("nope")

    def test_len_and_contains(self):
        graph = simple_network()
        assert len(graph) == 4
        assert "s" in graph
        assert "zz" not in graph

    def test_edge_multiset(self):
        graph = FlowNetwork()
        graph.add_node("u")
        graph.add_node("v")
        graph.add_edge("u", "v")
        graph.add_edge("u", "v")
        assert graph.edge_multiset() == {("u", "v"): 2}


class TestFlowStructure:
    def test_source_and_sink(self):
        graph = simple_network()
        assert graph.source() == "s"
        assert graph.sink() == "t"

    def test_two_sources_raise(self):
        graph = simple_network()
        graph.add_node("s2")
        graph.add_edge("s2", "t")
        with pytest.raises(GraphStructureError, match="source"):
            graph.source()

    def test_validate_rejects_disconnected_node(self):
        graph = simple_network()
        graph.add_node("island1")
        graph.add_node("island2")
        graph.add_edge("island1", "island2")
        with pytest.raises(GraphStructureError):
            graph.validate_flow_network()

    def test_validate_rejects_empty(self):
        with pytest.raises(GraphStructureError, match="empty"):
            FlowNetwork().validate_flow_network()

    def test_validate_accepts_flow_network(self):
        simple_network().validate_flow_network()
        assert simple_network().is_flow_network()

    def test_node_off_st_path_rejected(self):
        graph = simple_network()
        # c is reachable from s but cannot reach t.
        graph.add_node("c")
        graph.add_edge("a", "c")
        assert not graph.is_flow_network()

    def test_acyclicity(self):
        graph = simple_network()
        assert graph.is_acyclic()
        graph.add_edge("t", "s")
        assert not graph.is_acyclic()

    def test_topological_order(self):
        graph = simple_network()
        order = graph.topological_order()
        position = {node: i for i, node in enumerate(order)}
        for u, v, _ in graph.edges():
            assert position[u] < position[v]

    def test_topological_order_cycle_raises(self):
        graph = simple_network()
        graph.add_edge("t", "s")
        with pytest.raises(GraphStructureError, match="cycle"):
            graph.topological_order()


class TestCopiesAndConversions:
    def test_copy_is_deep(self):
        graph = simple_network()
        clone = graph.copy()
        clone.add_node("extra")
        assert "extra" not in graph
        assert graph.structurally_equal(simple_network())

    def test_structurally_equal_ignores_keys(self):
        left = FlowNetwork()
        left.add_node("u")
        left.add_node("v")
        left.add_edge("u", "v", key=0)
        left.add_edge("u", "v", key=1)
        right = FlowNetwork()
        right.add_node("u")
        right.add_node("v")
        right.add_edge("u", "v", key=7)
        right.add_edge("u", "v", key=9)
        assert left.structurally_equal(right)

    def test_structurally_unequal_on_labels(self):
        left = FlowNetwork()
        left.add_node("u", "x")
        right = FlowNetwork()
        right.add_node("u", "y")
        assert not left.structurally_equal(right)

    def test_from_edge_list(self):
        graph = FlowNetwork.from_edge_list(
            [("s", "a"), ("a", "t")], labels={"a": "mid"}
        )
        assert graph.label("a") == "mid"
        assert graph.source() == "s"

    def test_repr_mentions_counts(self):
        assert "nodes=4" in repr(simple_network())
