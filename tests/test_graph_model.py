"""Unit tests for the graph data model (repro.graph.model)."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.graph.model import Adj, Edge, LocalGraph


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


def test_self_loop_lists_its_outgoing_entry_first():
    """The adjacency is sorted on the edge id alone, and stably: a
    self-loop's two entries keep their build order, outgoing first. A sort
    on the whole record would put ``False`` before ``True``."""
    g = LocalGraph([Edge(0, 1, "a", 2), Edge(1, 2, "b", 2)])
    assert g.adj_of(2) == ((0, 1, False, "a"), (1, 2, True, "b"),
                           (1, 2, False, "b"))


def test_adjacency_order_of_edges_given_out_of_id_order():
    g = LocalGraph([Edge(5, 1, "a", 2), Edge(2, 2, "b", 1), Edge(3, 1, "c", 1),
                    Edge(0, 2, "a", 1)])
    assert g.adj_of(1) == (
        Adj(0, 2, False, "a"), Adj(2, 2, False, "b"), Adj(3, 1, True, "c"),
        Adj(3, 1, False, "c"), Adj(5, 2, True, "a"),
    )
    assert g.adj_of(2) == (
        Adj(0, 1, True, "a"), Adj(2, 1, True, "b"), Adj(5, 1, False, "a"),
    )


@pytest.mark.parametrize("record", [Edge(0, 1, "a", 2), Adj(0, 2, True, "a")])
def test_records_are_immutable_and_hashable(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 9)
    assert hash(record) == hash(type(record)(*record))
    assert {record, type(record)(*record)} == {record}


def test_search_path_imports_neither_pandas_nor_pyspark():
    """The in-memory graph and search load no table library: only
    ``to_pandas`` and ``to_spark`` need one, and import it when called."""
    code = (
        "import sys, repro.core, repro.graph.generators, "
        "repro.graph.random_graphs; "
        "print(sorted(m for m in ('pandas', 'pyspark') if m in sys.modules))"
    )
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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


def test_in_adjacency_is_adjacency_into_the_node():
    """Parallel edges both ways, a self-loop (one entry each way at its
    node) and an isolated node: ``in_adj_of`` keeps exactly the incoming
    entries of ``adj_of``, in its order, and keeps them after first use."""
    g = LocalGraph(
        [Edge(5, 2, "b", 1), Edge(0, 1, "a", 2), Edge(1, 1, "b", 2),
         Edge(2, 2, "a", 1), Edge(3, 3, "c", 3), Edge(4, 2, "a", 3)],
        node_labels={7: "iso"},
    )
    for n in sorted(g.nodes):
        expected = tuple(a for a in g.adj_of(n) if not a.outgoing)
        assert g.in_adj_of(n) == expected
        assert g.in_adj_of(n) is g.in_adj_of(n)
    assert [a.eid for a in g.in_adj_of(1)] == [2, 5]
    assert g.in_adj_of(3) == (Adj(3, 3, False, "c"), Adj(4, 2, False, "a"))
    assert g.in_adj_of(7) == ()


def test_nodes_by_label_and_type(tiny):
    assert tiny.nodes_by_label("two") == [2]
    assert tiny.nodes_by_type("t2") == [1]


def test_to_pandas_tables(tiny):
    """One table, ``edges``, with each endpoint's label and sorted types
    on the edge row; an untyped node has no types."""
    pdfs = tiny.to_pandas()
    assert list(pdfs) == ["edges"]
    edges = pdfs["edges"]
    assert list(edges.columns) == [
        "id", "src", "label", "dst",
        "src_label", "dst_label", "src_types", "dst_types",
    ]
    assert len(edges) == 3
    row = edges.set_index("id").loc[0]
    assert (row["src_label"], row["dst_label"]) == ("one", "two")
    assert list(row["src_types"]) == ["t1", "t2"]
    assert list(row["dst_types"]) == []


def test_edge_rows_carry_endpoint_labels_and_types():
    """The BGP compiler tests a node's conditions on the edge row that
    binds it, so every row holds ``label`` and the sorted ``types`` of both
    endpoints, also of a self-loop and of an unlabeled or untyped node."""
    g = LocalGraph(
        [Edge(0, 1, "a", 2), Edge(1, 2, "b", 3), Edge(2, 3, "a", 3),
         Edge(3, 1, "a", 2)],
        node_labels={2: "two", 4: "isolated"},
        node_types={3: {"t2", "t1"}, 5: {"t1"}},
    )
    rows = g.to_pandas()["edges"].to_dict("records")
    assert [r["id"] for r in rows] == [0, 1, 2, 3]
    for r in rows:
        for end in ("src", "dst"):
            n = r[end]
            assert r[f"{end}_label"] == g.label(n)
            assert list(r[f"{end}_types"]) == sorted(g.types(n))
    assert rows[2]["src_types"] == rows[2]["dst_types"] == ["t1", "t2"]
    assert rows[0]["src_label"] == "1" and rows[0]["src_types"] == []


def test_untyped_graph_has_string_list_columns():
    """With no types at all, the type columns are still lists of strings,
    so DuckDB and Spark read one type whatever the values."""
    edges = LocalGraph([Edge(0, 1, "a", 2)]).to_pandas()["edges"]
    for col in ("src_types", "dst_types"):
        assert str(edges[col].dtype) == "list<item: string>[pyarrow]"
        assert edges[col].tolist() == [[]]
