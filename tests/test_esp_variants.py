"""Tests for ESP / MoESP / LESP (§4.4-§4.6): pruning guarantees,
incompleteness counter-examples, and the formal properties."""
import pytest

from repro.core import esp, gam, lesp, moesp, molesp
from repro.core.bruteforce import enumerate_results
from repro.graph import generators as gen
from repro.graph.random_graphs import random_graph

from tests.helpers import edge_sets, in_order, keys

ORDERS = [None, 0, 1, 2, 3, 4, 5, 6, 7]


# ---- ESP (§4.4) ----------------------------------------------------------

def test_esp_sound_subset_of_bruteforce():
    for trial in range(6):
        g = random_graph(7, 10, seed=60 + trial)
        nodes = sorted(g.nodes)
        ss = [[nodes[0]], [nodes[2]], [nodes[4]]]
        expect = keys(enumerate_results(g, ss))
        assert keys(esp(g, ss)) <= expect


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n_l", [0, 1, 2])
def test_esp_complete_for_two_seed_sets(order, n_l):
    """Property 3: with m=2, ESP finds every result, any order."""
    b = gen.line(2, n_l)
    expect = keys(enumerate_results(b.graph, b.seed_sets))
    assert keys(in_order(esp, b.graph, b.seed_sets, order)) == expect


@pytest.mark.parametrize("order", ORDERS)
def test_esp_complete_m2_chain(order):
    b = gen.chain(3)
    expect = keys(enumerate_results(b.graph, b.seed_sets))
    assert keys(in_order(esp, b.graph, b.seed_sets, order)) == expect


@pytest.mark.parametrize("order", ORDERS)
def test_esp_complete_m2_random(order):
    g = random_graph(7, 11, seed=77)
    nodes = sorted(g.nodes)
    ss = [[nodes[0]], [nodes[5]]]
    expect = keys(enumerate_results(g, ss))
    assert keys(in_order(esp, g, ss, order)) == expect


def test_esp_incomplete_on_fig3():
    """The §4.4 counter-example: under some orders (including the default
    smallest-first order) ESP misses the only fig3 result."""
    b = gen.fig3()
    missed = [
        o for o in ORDERS if not in_order(esp, b.graph, b.seed_sets, o).results
    ]
    assert missed, "ESP unexpectedly complete on fig3 for every probed order"


def test_esp_incomplete_on_line_default_order():
    """Figure 11: ESP and LESP find no results on Line graphs."""
    for algo in (esp, lesp):
        b = gen.line(3, 1)
        assert algo(b.graph, b.seed_sets).results == []


def test_esp_incomplete_on_comb_default_order():
    for algo in (esp, lesp):
        b = gen.comb(2, 1, 2, 1)
        assert algo(b.graph, b.seed_sets).results == []


def test_esp_prunes_vs_gam():
    """ESP builds strictly fewer provenances than GAM (the §4.4 point)."""
    b = gen.star(6, 2)
    assert esp(b.graph, b.seed_sets).stats.built < gam(b.graph, b.seed_sets).stats.built


# ---- MoESP (§4.5) --------------------------------------------------------

def test_moesp_superset_of_esp():
    b = gen.fig3()
    for o in ORDERS:
        assert keys(in_order(esp, b.graph, b.seed_sets, o)) <= keys(
            in_order(moesp, b.graph, b.seed_sets, o)
        )


@pytest.mark.parametrize("order", ORDERS)
def test_moesp_finds_fig3_result(order):
    """§4.5: MoESP finds the fig3 result (2ps) under every order."""
    b = gen.fig3()
    assert len(in_order(moesp, b.graph, b.seed_sets, order).results) == 1


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "bundle", [gen.fig4(), gen.line(4, 1), gen.comb(2, 1, 2, 1)],
    ids=["fig4", "line", "comb"],
)
def test_moesp_finds_2ps_results(order, bundle):
    """Property 4: all 2-piecewise-simple results are found."""
    expect = keys(enumerate_results(bundle.graph, bundle.seed_sets))
    assert keys(in_order(moesp, bundle.graph, bundle.seed_sets, order)) == expect


@pytest.mark.parametrize("order", ORDERS)
def test_moesp_finds_all_path_results(order):
    """Property 5: path results (alternating seeds) are always found."""
    b = gen.line(5, 1)
    out = in_order(moesp, b.graph, b.seed_sets, order)
    assert len(out.results) == 1


def test_moesp_may_miss_3simple_under_some_order():
    """§4.5 Figure 5: the 3-simple result can be missed by MoESP under an
    arbitrary execution order (smallest-first provably avoids the bad
    orders on this graph)."""
    b = gen.fig5()
    missed = [
        o for o in range(60)
        if not in_order(moesp, b.graph, b.seed_sets, o).results
    ]
    assert missed, "expected at least one order where MoESP misses fig5"


# ---- LESP (§4.6) ---------------------------------------------------------

@pytest.mark.parametrize("order", ORDERS)
def test_lesp_finds_rooted_merges_fig5(order):
    """Lemma 4.2 / Property 6: (3,n)-rooted merges are always found."""
    b = gen.fig5()
    assert len(in_order(lesp, b.graph, b.seed_sets, order).results) == 1


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m", [3, 4, 5])
def test_lesp_finds_star_results(order, m):
    """A Star result is a (u,n)-rooted merge: LESP must find it."""
    b = gen.star(m, 2)
    assert len(in_order(lesp, b.graph, b.seed_sets, order).results) == 1


def test_lesp_may_miss_fig6_under_some_order():
    """§4.6 Figure 6: with 4 seed sets, results that are not rooted merges
    can be missed by LESP."""
    b = gen.fig6()
    missed = [
        o for o in range(60)
        if not in_order(lesp, b.graph, b.seed_sets, o).results
    ]
    assert missed, "expected at least one order where LESP misses fig6"


def test_lesp_superset_of_esp_results():
    b = gen.fig5()
    for o in ORDERS:
        assert keys(in_order(esp, b.graph, b.seed_sets, o)) <= keys(
            in_order(lesp, b.graph, b.seed_sets, o)
        )


def test_lesp_sound():
    for trial in range(5):
        g = random_graph(7, 10, seed=90 + trial)
        nodes = sorted(g.nodes)
        ss = [[nodes[0]], [nodes[2]], [nodes[4]], [nodes[6]]]
        expect = keys(enumerate_results(g, ss))
        assert keys(lesp(g, ss)) <= expect
