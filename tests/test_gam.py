"""Tests for GAM (§4.2): completeness, minimality-by-construction,
order-independence (Property 1, Property 2)."""
import pytest

from repro.core import gam
from repro.core.bft import tree_leaves
from repro.core.bruteforce import enumerate_results
from repro.core.filters import CTPFilters
from repro.graph import generators as gen
from repro.graph.random_graphs import random_graph

from tests.helpers import in_order, keys


@pytest.mark.parametrize(
    "bundle",
    [gen.fig3(), gen.fig4(), gen.fig5(), gen.fig6(), gen.fig7(),
     gen.line(4, 1), gen.star(4, 2), gen.comb(2, 1, 2, 1), gen.chain(4),
     gen.figure1()],
    ids=["fig3", "fig4", "fig5", "fig6", "fig7", "line", "star", "comb",
         "chain", "figure1"],
)
def test_gam_complete(bundle):
    expect = keys(enumerate_results(bundle.graph, bundle.seed_sets))
    out = gam(bundle.graph, bundle.seed_sets)
    assert out.stop == "exhausted"
    assert keys(out) == expect


@pytest.mark.parametrize("order", [None, 0, 1, 2, 3, 4])
def test_gam_complete_any_order(order):
    """Property 1 holds regardless of exploration order."""
    b = gen.fig6()
    expect = keys(enumerate_results(b.graph, b.seed_sets))
    assert keys(in_order(gam, b.graph, b.seed_sets, order)) == expect


@pytest.mark.parametrize("trial", range(10))
def test_gam_complete_random_graphs(trial):
    g = random_graph(6 + trial % 4, 9 + trial % 5, seed=30 + trial)
    nodes = sorted(g.nodes)
    seed_sets = [[nodes[1]], [nodes[3]], [nodes[5]]]
    expect = keys(enumerate_results(g, seed_sets))
    assert keys(gam(g, seed_sets)) == expect


def test_gam_results_minimal_by_construction():
    """Property 2: every reported tree has only seed leaves, one node per
    seed set — without a minimization pass."""
    b = gen.figure1()
    out = gam(b.graph, b.seed_sets)
    seeds_by_set = [set(s) for s in b.seed_sets]
    for r in out.results:
        for leaf in tree_leaves(r.edges, b.graph):
            assert any(leaf in s for s in seeds_by_set)
        for s in seeds_by_set:
            assert len(r.nodes & s) == 1


def test_gam_single_node_result():
    """A node in every seed set is a 0-edge result."""
    b = gen.fig3()
    a = b.seed_sets[0][0]
    out = gam(b.graph, [[a], [a, b.seed_sets[1][0]]])
    assert any(r.size == 0 and r.nodes == frozenset({a}) for r in out.results)


def test_gam_overlapping_seed_sets():
    b = gen.line(3, 1)
    s1, s2, s3 = (s[0] for s in b.seed_sets)
    expect = keys(enumerate_results(b.graph, [[s1, s2], [s2, s3]]))
    assert keys(gam(b.graph, [[s1, s2], [s2, s3]])) == expect


def test_gam_counts_provenances():
    b = gen.line(3, 1)
    out = gam(b.graph, b.seed_sets)
    assert out.stats.built >= out.stats.kept > 0
    assert out.stats.grows > 0


def test_gam_timeout_flag():
    b = gen.star(8, 2)
    out = gam(b.graph, b.seed_sets, filters=CTPFilters(max_built=50))
    assert out.stop == "budget"


def test_gam_rejects_empty_seed_set():
    b = gen.fig3()
    with pytest.raises(ValueError):
        gam(b.graph, [b.seed_sets[0], []])


def test_gam_isolated_seed_no_results():
    from repro.graph.model import Edge, LocalGraph

    g = LocalGraph([Edge(0, 1, "a", 2)], node_labels={9: "iso"})
    out = gam(g, [[1], [9]])
    assert out.stop == "exhausted" and out.results == []
