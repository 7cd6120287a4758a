"""Tests for the Spark path/reachability baselines (§5.2 substitutes)."""
import pytest

from repro.baselines import (
    enumerate_paths, reachable_pairs, release, stitch_paths_m3,
)
from repro.graph import generators as gen
from repro.graph.model import Edge, LocalGraph


@pytest.fixture(scope="module")
def diamond(spark):
    #   1 -> 2 -> 4
    #   1 -> 3 -> 4,  plus back-edge 4 -> 1
    g = LocalGraph([
        Edge(0, 1, "a", 2), Edge(1, 2, "a", 4),
        Edge(2, 1, "b", 3), Edge(3, 3, "b", 4),
        Edge(4, 4, "c", 1),
    ])
    return g, g.to_spark(spark)["edges"]


def _paths(df):
    return {(r["src"], r["dst"], tuple(r["edges"])) for r in df.collect()}


def test_directed_paths(spark, diamond):
    g, edges = diamond
    out = enumerate_paths(spark, edges, [1], [4], max_len=3)
    assert _paths(out) == {(1, 4, (0, 1)), (1, 4, (2, 3))}


def test_paths_respect_max_len(spark, diamond):
    g, edges = diamond
    out = enumerate_paths(spark, edges, [1], [4], max_len=1)
    assert out.count() == 0


def test_paths_are_simple_no_revisits(spark, diamond):
    g, edges = diamond
    # With the 4->1 back edge, non-simple walks would loop forever; the
    # visited-array pruning keeps paths simple.
    out = enumerate_paths(spark, edges, [2], [3], max_len=4)
    assert _paths(out) == {(2, 3, (1, 4, 2))}


def test_undirected_paths(spark, diamond):
    g, edges = diamond
    out = enumerate_paths(spark, edges, [2], [3], max_len=2, directed=False)
    assert {(r["src"], r["dst"]) for r in out.collect()} == {(2, 3)}
    assert sorted(r["hops"] for r in out.collect()) == [2, 2]  # via 1 and via 4


def test_label_constrained_paths(spark, diamond):
    g, edges = diamond
    out = enumerate_paths(
        spark, edges, [1], [4], max_len=3, labels=frozenset({"a"})
    )
    assert _paths(out) == {(1, 4, (0, 1))}


def test_multiple_sources_targets(spark, diamond):
    g, edges = diamond
    out = enumerate_paths(spark, edges, [2, 3], [4], max_len=1)
    assert _paths(out) == {(2, 4, (1,)), (3, 4, (3,))}


def test_reachability_existence_only(spark, diamond):
    g, edges = diamond
    out = reachable_pairs(spark, edges, [1], [4], max_len=4)
    rows = out.collect()
    assert {(r["src"], r["dst"]) for r in rows} == {(1, 4)}
    assert min(r["dist"] for r in rows) == 2
    assert "edges" not in out.columns  # check-only contract


def test_reachability_unreachable(spark, diamond):
    g, edges = diamond
    out = reachable_pairs(
        spark, edges, [2], [3], max_len=4, labels=frozenset({"a"})
    )
    assert out.count() == 0


def test_path_count_on_chain_graph(spark):
    """Figure 2: the chain graph has 2^n paths end-to-end."""
    b = gen.chain(4)
    edges = b.graph.to_spark(spark)["edges"]
    s, t = b.seed_sets[0][0], b.seed_sets[1][0]
    out = enumerate_paths(spark, edges, [s], [t], max_len=4)
    assert out.count() == 16


def test_stitch_paths_m3_overcounts(spark):
    """§2: path stitching produces duplicate / non-tree combinations."""
    b = gen.star(3, 1)  # center c, seeds A,B,C one hop away
    g = b.graph
    edges = g.to_spark(spark)["edges"]
    a, bb, c = (s[0] for s in b.seed_sets)
    center = g.nodes_by_label("center")[0]
    p1 = enumerate_paths(spark, edges, [center], [bb], 2, directed=False)
    p2 = enumerate_paths(spark, edges, [center], [c], 2, directed=False)
    stitched = stitch_paths_m3(p1, p2)
    # Includes the degenerate (b-path, b-path)-style joins the paper warns
    # about, before any dedup: here 1x1 = 1 real combination exists, and
    # stitching returns it without minimality checks.
    assert stitched.count() == p1.count() * p2.count()


def test_empty_frontier_terminates(spark):
    g = LocalGraph([Edge(0, 1, "a", 2)])
    edges = g.to_spark(spark)["edges"]
    out = enumerate_paths(spark, edges, [2], [1], max_len=5)  # wrong direction
    assert out.count() == 0


def test_returned_frame_is_the_only_rdd_left_persisted(spark, diamond):
    """Each hop releases the frontier and accumulator it replaces, so
    releasing the returned frame leaves no persistent RDD behind. (Checked
    as "none new" rather than as equality, since Spark's ContextCleaner may
    drop other tests' RDDs meanwhile.)"""
    g, edges = diamond
    jsc = spark.sparkContext._jsc
    before = set(jsc.getPersistentRDDs().keySet())
    for search, kwargs in (
        (enumerate_paths, {}),
        (enumerate_paths, {"directed": False}),
        (enumerate_paths, {"labels": frozenset({"a"})}),
        (reachable_pairs, {}),
        (reachable_pairs, {"directed": False}),
        (reachable_pairs, {"labels": frozenset({"a"})}),
    ):
        out = search(spark, edges, [1, 2], [3, 4], max_len=2, **kwargs)
        assert out.count() > 0
        release(out)
    assert set(jsc.getPersistentRDDs().keySet()) - before == set()
