"""Tests for the §5.3 benchmark graph generators."""
import pytest

from repro.graph import generators as gen


# ---- Line ----------------------------------------------------------------

@pytest.mark.parametrize("m,n_l", [(2, 0), (2, 1), (3, 1), (5, 2), (10, 4)])
def test_line_edge_count(m, n_l):
    b = gen.line(m, n_l)
    assert b.graph.n_edges == (m - 1) * (n_l + 1)


@pytest.mark.parametrize("m,n_l", [(3, 1), (5, 2)])
def test_line_node_count(m, n_l):
    b = gen.line(m, n_l)
    assert b.graph.n_nodes == m + (m - 1) * n_l


def test_line_seed_sets_are_singletons():
    b = gen.line(4, 2)
    assert len(b.seed_sets) == 4
    assert all(len(s) == 1 for s in b.seed_sets)


def test_line_seed_labels():
    b = gen.line(3, 1)
    labels = [b.graph.label(s[0]) for s in b.seed_sets]
    assert labels == ["A", "B", "C"]


def test_line_rejects_m1():
    with pytest.raises(ValueError):
        gen.line(1, 1)


# ---- Comb ----------------------------------------------------------------

@pytest.mark.parametrize(
    "n_a,n_s,s_l,d_ba", [(2, 1, 1, 1), (3, 1, 2, 2), (4, 2, 1, 1), (6, 1, 3, 3)]
)
def test_comb_seed_count(n_a, n_s, s_l, d_ba):
    b = gen.comb(n_a, n_s, s_l, d_ba)
    assert len(b.seed_sets) == n_a * (n_s + 1)


@pytest.mark.parametrize(
    "n_a,n_s,s_l,d_ba", [(2, 1, 1, 1), (3, 1, 2, 2), (4, 2, 1, 1)]
)
def test_comb_edge_count(n_a, n_s, s_l, d_ba):
    b = gen.comb(n_a, n_s, s_l, d_ba)
    expect = (n_a - 1) * (d_ba + 1) + n_a * n_s * s_l
    assert b.graph.n_edges == expect


def test_comb_is_connected():
    b = gen.comb(3, 2, 2, 1)
    g = b.graph
    seen = set()
    stack = [next(iter(g.nodes))]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(a.other for a in g.adj_of(n))
    assert seen == set(g.nodes)


# ---- Star ----------------------------------------------------------------

@pytest.mark.parametrize("m,s_l", [(2, 1), (3, 2), (4, 2), (8, 3)])
def test_star_edge_count(m, s_l):
    b = gen.star(m, s_l)
    assert b.graph.n_edges == m * s_l


def test_star_center_degree():
    b = gen.star(5, 2)
    center = b.graph.nodes_by_label("center")[0]
    assert b.graph.degree[center] == 5


def test_star_seeds_are_leaves():
    b = gen.star(4, 2)
    for (s,) in b.seed_sets:
        assert b.graph.degree[s] == 1


# ---- Chain (Figure 2) ----------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_chain_edge_count(n):
    b = gen.chain(n)
    assert b.graph.n_edges == 2 * n
    assert b.graph.n_nodes == n + 1


def test_chain_has_parallel_edges():
    b = gen.chain(2)
    pairs = {}
    for e in b.graph.edges.values():
        pairs.setdefault((e.src, e.dst), 0)
        pairs[(e.src, e.dst)] += 1
    assert all(c == 2 for c in pairs.values())


# ---- Figure example graphs ----------------------------------------------

def test_fig3_shape():
    b = gen.fig3()
    assert b.graph.n_edges == 5
    assert len(b.seed_sets) == 3


def test_fig4_shape():
    b = gen.fig4()
    assert len(b.seed_sets) == 6
    assert b.graph.n_edges == 11


def test_fig5_shape():
    b = gen.fig5()
    assert b.graph.n_edges == 6
    x = b.graph.nodes_by_label("x")[0]
    assert b.graph.degree[x] == 3


def test_fig6_shape():
    b = gen.fig6()
    assert b.graph.n_edges == 8
    assert len(b.seed_sets) == 4


def test_fig7_shape():
    b = gen.fig7()
    assert len(b.seed_sets) == 6
    # two merge centers with degrees 3 and 4
    degs = sorted(
        b.graph.degree[b.graph.nodes_by_label(l)[0]] for l in ("c1", "c2")
    )
    assert degs == [3, 4]


# ---- Figure 1 reconstruction ---------------------------------------------

def test_figure1_seed_sets():
    b = gen.figure1()
    assert b.seed_sets == [[2, 4], [3, 6], [9]]


def test_figure1_types():
    g = gen.figure1().graph
    assert "entrepreneur" in g.types(3)
    assert g.label(3) == "Alice"
    assert "politician" in g.types(9)


def test_figure1_bft_trace_edges_exist():
    """The §4.1 BFT example needs e5, e4 adjacent to n2 and e6 on the
    n2..n4 path through USA."""
    g = gen.figure1().graph
    assert g.edges[5].src == 2 and g.label(g.edges[5].dst) == "USA"
    assert g.edges[4].src == 2
    assert g.edges[6].src == 4 and g.label(g.edges[6].dst) == "USA"


# ---- CDF -----------------------------------------------------------------

@pytest.mark.parametrize(
    "m,n_t,n_l,s_l", [(2, 2, 4, 3), (2, 4, 8, 6), (3, 2, 3, 3), (3, 4, 6, 6)]
)
def test_cdf_edge_count_formula(m, n_t, n_l, s_l):
    b = gen.cdf(m, n_t, n_l, s_l, seed=0)
    assert b.graph.n_edges == gen.cdf_edge_count(n_t, n_l, s_l)


def test_cdf_m2_node_count():
    n_t, n_l, s_l = 3, 5, 3
    b = gen.cdf(2, n_t, n_l, s_l, seed=0)
    assert b.graph.n_nodes == 14 * n_t + n_l * (s_l - 1)


def test_cdf_links_recorded():
    b = gen.cdf(2, 2, 5, 3, seed=3)
    assert len(b.links) == 5
    for tl, bl in b.links:
        assert tl in b.top_leaves


@pytest.mark.parametrize("m", [2, 3])
def test_cdf_links_drawn_with_replacement(m):
    """Two links may share both ends (the ``cdf`` docstring's example)."""
    b = gen.cdf(m, n_t=128, n_l=256, s_l=3, seed=17)
    assert len(b.links) == 256
    assert len(set(b.links)) == 255


def test_cdf_m3_links_are_sibling_pairs():
    b = gen.cdf(3, 2, 4, 3, seed=3)
    units = set(b.bottom_units)
    for tl, bl1, bl2 in b.links:
        assert (bl1, bl2) in units


def test_cdf_m3_requires_sl3():
    with pytest.raises(ValueError):
        gen.cdf(3, 2, 2, 2)


def test_cdf_deterministic():
    a = gen.cdf(2, 3, 6, 3, seed=9)
    b = gen.cdf(2, 3, 6, 3, seed=9)
    assert a.links == b.links


def test_cdf_top_leaf_edges_labeled_c():
    b = gen.cdf(2, 2, 2, 3, seed=0)
    g = b.graph
    for leaf in b.top_leaves:
        labels = {a.label for a in g.adj_of(leaf) if not a.outgoing}
        assert "c" in labels
