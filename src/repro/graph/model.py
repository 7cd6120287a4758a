"""Graph data model.

A graph (Def. 2.1) is a set of labeled nodes and labeled, directed edges;
parallel edges are allowed (they carry distinct edge IDs — required by the
Fig. 2 "chain" graph whose 2^N results come from doubled edges).

:class:`LocalGraph` is the graph: the generators build one, and the CTP
search engines of §4 traverse its adjacency index, as the paper's own
evaluation loads the graph in memory before running CTP search (§5.1).
:meth:`~LocalGraph.to_pandas` and :meth:`~LocalGraph.to_spark` write it
out as one table, the paper's ``graph(id, source, edgeLabel, target)``
with each endpoint's label and types on the edge row: ``edges(id, src,
label, dst, src_label, dst_label, src_types, dst_types)``, where a type
list holds the node's 0..n types (the RDF-style type sets of §2). Spark
runs the BGPs on it, and the DuckDB oracle reads it.
"""
from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

if TYPE_CHECKING:
    import pandas as pd
    from pyspark.sql import DataFrame, SparkSession

@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the ``with`` body, and hand
    back the caller's collector state after it, also when it raises.

    For code that allocates many tracked objects and makes no reference
    cycles: the collector's passes over them would find nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Edge(NamedTuple):
    """A directed, labeled edge. ``id`` is unique; parallel edges allowed."""

    id: int
    src: int
    label: str
    dst: int


class Adj(NamedTuple):
    """One adjacency entry at node ``u``: edge ``eid`` connects ``u`` to
    ``other``; ``outgoing`` is True iff the edge is directed ``u -> other``."""

    eid: int
    other: int
    outgoing: bool
    label: str


class LocalGraph:
    """In-memory graph with undirected adjacency index.

    ``node_labels``/``node_types`` are optional metadata used by predicates;
    nodes mentioned only there (isolated nodes) are part of the node set too.
    """

    def __init__(
        self,
        edges: Iterable[Edge],
        node_labels: Mapping[int, str] | None = None,
        node_types: Mapping[int, frozenset[str] | set[str]] | None = None,
    ) -> None:
        # Three records per edge and no reference cycles: see gc_paused.
        with gc_paused():
            self.edges: dict[int, Edge] = {}
            adj: dict[int, list[Adj]] = {}
            for e in edges:
                eid, src, label, dst = e
                if eid in self.edges:
                    raise ValueError(f"duplicate edge id {eid}")
                self.edges[eid] = e
                adj.setdefault(src, []).append(Adj(eid, dst, True, label))
                adj.setdefault(dst, []).append(Adj(eid, src, False, label))
            self.node_labels: dict[int, str] = dict(node_labels or {})
            self.node_types: dict[int, frozenset[str]] = {
                n: frozenset(ts) for n, ts in (node_types or {}).items()
            }
            nodes = set(adj)
            nodes.update(self.node_labels)
            nodes.update(self.node_types)
            self.nodes: frozenset[int] = frozenset(nodes)
            # Deterministic adjacency order, so default search order is
            # reproducible run-to-run: by edge id alone, and stable, so a
            # self-loop keeps its outgoing entry first.
            eid_of = itemgetter(0)
            self.adj: dict[int, tuple[Adj, ...]] = {
                n: tuple(sorted(entries, key=eid_of))
                for n, entries in adj.items()
            }
            self.degree: dict[int, int] = {
                n: len(self.adj.get(n, ())) for n in nodes
            }
        self._in_adj: dict[int, tuple[Adj, ...]] = {}   # see in_adj_of

    # ---- convenience -----------------------------------------------------
    def label(self, n: int) -> str:
        return self.node_labels.get(n, str(n))

    def types(self, n: int) -> frozenset[str]:
        return self.node_types.get(n, frozenset())

    def adj_of(self, n: int) -> tuple[Adj, ...]:
        return self.adj.get(n, ())

    def in_adj_of(self, n: int) -> tuple[Adj, ...]:
        """The entries of :meth:`adj_of` whose edge points into ``n``, in
        the same order: the edges a UNI search may Grow along from a tree
        rooted at ``n``. Each is built on first use and kept, so building
        the graph pays nothing for it and later searches reuse it."""
        adj = self._in_adj.get(n)
        if adj is None:
            adj = self._in_adj[n] = tuple(
                a for a in self.adj_of(n) if not a.outgoing
            )
        return adj

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        e = self.edges[eid]
        return e.src, e.dst

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def nodes_by_label(self, label: str) -> list[int]:
        return sorted(n for n in self.nodes if self.label(n) == label)

    def nodes_by_type(self, t: str) -> list[int]:
        return sorted(n for n in self.nodes if t in self.types(n))

    # ---- relational table ------------------------------------------------
    def to_pandas(self) -> dict[str, pd.DataFrame]:
        """The ``edges`` table as a pandas frame (also what the DuckDB
        oracle registers). A node's types are sorted, and an untyped node
        has ``[]``; the type lists are Arrow ``list<string>`` columns, so
        Spark and DuckDB read that type even where every list is empty."""
        import pandas as pd
        import pyarrow as pa

        edges = list(self.edges.values())
        src = [e.src for e in edges]
        dst = [e.dst for e in edges]
        types = {n: sorted(ts) for n, ts in self.node_types.items()}
        no_types: list[str] = []
        str_lists = pd.ArrowDtype(pa.list_(pa.string()))
        return {"edges": pd.DataFrame({
            "id": pd.Series([e.id for e in edges], dtype="int64"),
            "src": pd.Series(src, dtype="int64"),
            "label": pd.Series([e.label for e in edges], dtype=object),
            "dst": pd.Series(dst, dtype="int64"),
            "src_label": pd.Series([self.label(n) for n in src], dtype=object),
            "dst_label": pd.Series([self.label(n) for n in dst], dtype=object),
            "src_types": pd.Series(
                [types.get(n, no_types) for n in src], dtype=str_lists),
            "dst_types": pd.Series(
                [types.get(n, no_types) for n in dst], dtype=str_lists),
        })}

    def to_spark(self, spark: SparkSession) -> dict[str, DataFrame]:
        schema = (
            "id long, src long, label string, dst long, src_label string, "
            "dst_label string, src_types array<string>, dst_types array<string>"
        )
        return {"edges": spark.createDataFrame(self.to_pandas()["edges"], schema=schema)}


@dataclass
class GraphBundle:
    """A LocalGraph together with named seed sets (generator output)."""

    graph: LocalGraph
    seed_sets: list[list[int]] = field(default_factory=list)
