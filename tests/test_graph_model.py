"""Unit tests for the graph data model (repro.graph.model)."""
import pytest

from repro.graph.model import Adj, Edge, LocalGraph, from_spark


@pytest.fixture()
def tiny() -> LocalGraph:
    return LocalGraph(
        [Edge(0, 1, "a", 2), Edge(1, 2, "b", 3), Edge(2, 1, "a", 3)],
        node_labels={1: "one", 2: "two", 3: "three"},
        node_types={1: {"t1", "t2"}},
    )


def test_nodes_and_edges(tiny):
    assert tiny.n_nodes == 3
    assert tiny.n_edges == 3
    assert tiny.nodes == frozenset({1, 2, 3})


def test_adjacency_is_undirected(tiny):
    entries = tiny.adj_of(2)
    assert {(a.eid, a.other, a.outgoing) for a in entries} == {
        (0, 1, False),
        (1, 3, True),
    }


def test_adjacency_sorted_by_edge_id(tiny):
    for n in tiny.nodes:
        eids = [a.eid for a in tiny.adj_of(n)]
        assert eids == sorted(eids)


def test_degree(tiny):
    assert tiny.degree == {1: 2, 2: 2, 3: 2}


def test_labels_and_types(tiny):
    assert tiny.label(1) == "one"
    assert tiny.types(1) == frozenset({"t1", "t2"})
    assert tiny.types(2) == frozenset()
    assert tiny.label(99) == "99"  # default is the id


def test_edge_endpoints(tiny):
    assert tiny.edge_endpoints(2) == (1, 3)


def test_duplicate_edge_id_rejected():
    with pytest.raises(ValueError):
        LocalGraph([Edge(0, 1, "a", 2), Edge(0, 2, "a", 3)])


def test_parallel_edges_allowed():
    g = LocalGraph([Edge(0, 1, "a", 2), Edge(1, 1, "b", 2)])
    assert g.n_edges == 2
    assert g.degree[1] == 2


def test_isolated_node_from_labels():
    g = LocalGraph([Edge(0, 1, "a", 2)], node_labels={7: "iso"})
    assert 7 in g.nodes
    assert g.adj_of(7) == ()
    assert g.degree[7] == 0


def test_nodes_by_label_and_type(tiny):
    assert tiny.nodes_by_label("two") == [2]
    assert tiny.nodes_by_type("t2") == [1]


def test_to_pandas_tables(tiny):
    pdfs = tiny.to_pandas()
    assert list(pdfs["edges"].columns) == ["id", "src", "label", "dst"]
    assert len(pdfs["edges"]) == 3
    assert len(pdfs["nodes"]) == 3
    assert set(pdfs["types"]["type"]) == {"t1", "t2"}


def test_every_edge_endpoint_is_one_node_row():
    """The BGP compiler binds node variables to edge endpoints and never
    joins them with ``nodes``; that needs each endpoint in ``nodes`` once."""
    g = LocalGraph(
        [Edge(0, 1, "a", 2), Edge(1, 2, "b", 3), Edge(2, 3, "a", 3),
         Edge(3, 1, "a", 2)],
        node_labels={2: "two", 4: "isolated"},
        node_types={3: {"t1", "t2"}, 5: {"t1"}},
    )
    ids = g.to_pandas()["nodes"]["id"].tolist()
    assert sorted(ids) == [1, 2, 3, 4, 5]
    for e in g.edges.values():
        assert ids.count(e.src) == ids.count(e.dst) == 1


def test_spark_round_trip(spark, tiny):
    dfs = tiny.to_spark(spark)
    back = from_spark(dfs["edges"], dfs["nodes"], dfs["types"])
    assert back.nodes == tiny.nodes
    assert {(e.id, e.src, e.label, e.dst) for e in back.edges.values()} == {
        (e.id, e.src, e.label, e.dst) for e in tiny.edges.values()
    }
    assert back.node_types == tiny.node_types
    assert back.node_labels == tiny.node_labels
