"""Tests for MoLESP (§4.7): Properties 7, 8, 9 across exploration orders,
equivalence with brute force for m <= 3."""
import pytest

from repro.core import esp, lesp, moesp, molesp
from repro.core.bruteforce import enumerate_results
from repro.graph import generators as gen
from repro.graph.random_graphs import random_graph

from tests.helpers import keys

ORDERS = [None, 0, 1, 2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "bundle",
    [gen.fig3(), gen.fig5(), gen.line(3, 2), gen.star(3, 2), gen.chain(3),
     gen.figure1()],
    ids=["fig3", "fig5", "line", "star", "chain", "figure1"],
)
def test_molesp_complete_m3(order, bundle):
    """Property 8: MoLESP is complete for m <= 3, for any order."""
    expect = keys(enumerate_results(bundle.graph, bundle.seed_sets))
    out = molesp(bundle.graph, bundle.seed_sets, rng_seed=order)
    assert keys(out) == expect


@pytest.mark.parametrize("trial", range(12))
@pytest.mark.parametrize("order", [None, 1, 2])
def test_molesp_complete_m3_random(trial, order):
    g = random_graph(6 + trial % 4, 8 + trial % 6, seed=300 + trial)
    nodes = sorted(g.nodes)
    m = 2 + trial % 2
    ss = [[nodes[i * 2]] for i in range(m)]
    expect = keys(enumerate_results(g, ss))
    assert keys(molesp(g, ss, rng_seed=order)) == expect


@pytest.mark.parametrize("order", ORDERS)
def test_molesp_finds_3ps_results(order):
    """Property 7 on fig4 + an extra 3-simple piece: 3ps results found."""
    b = gen.fig5()  # 3-simple single piece
    assert len(molesp(b.graph, b.seed_sets, rng_seed=order).results) == 1


@pytest.mark.parametrize("order", ORDERS)
def test_molesp_property9_fig7(order):
    """Property 9: every theta(t) piece a rooted merge => found, m=6."""
    b = gen.fig7()
    assert len(molesp(b.graph, b.seed_sets, rng_seed=order).results) == 1


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m", [4, 6, 8])
def test_molesp_property9_stars(order, m):
    """Star results are (m, center)-rooted merges (Property 9 / §5.3)."""
    b = gen.star(m, 2)
    assert len(molesp(b.graph, b.seed_sets, rng_seed=order).results) == 1


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("params", [(5, 1), (8, 2)])
def test_molesp_line_results(order, params):
    """Line results are 2ps (Property 4 via MoESP component)."""
    b = gen.line(*params)
    assert len(molesp(b.graph, b.seed_sets, rng_seed=order).results) == 1


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("params", [(2, 1, 2, 1), (3, 1, 2, 2), (2, 2, 1, 1)])
def test_molesp_comb_results(order, params):
    b = gen.comb(*params)
    assert len(molesp(b.graph, b.seed_sets, rng_seed=order).results) == 1


def test_molesp_superset_of_moesp_and_lesp():
    b = gen.fig6()
    for o in ORDERS:
        mol = keys(molesp(b.graph, b.seed_sets, rng_seed=o))
        assert keys(moesp(b.graph, b.seed_sets, rng_seed=o)) <= mol
        assert keys(lesp(b.graph, b.seed_sets, rng_seed=o)) <= mol
        assert keys(esp(b.graph, b.seed_sets, rng_seed=o)) <= mol


def test_molesp_sound_m4plus():
    for trial in range(6):
        g = random_graph(8, 11, seed=400 + trial)
        nodes = sorted(g.nodes)
        ss = [[nodes[i]] for i in (0, 2, 4, 6)]
        expect = keys(enumerate_results(g, ss))
        assert keys(molesp(g, ss)) <= expect


def test_molesp_two_seeds_of_one_set_on_a_path():
    """Minimality (ii): on A - B - C with seed sets {A, B} and {C}, the
    A..C path holds two nodes of the first set, so only B - C is a result."""
    b = gen.line(3, 0)
    a, bb, c = (s[0] for s in b.seed_sets)
    ss = [[a, bb], [c]]
    out = keys(molesp(b.graph, ss))
    assert out == keys(enumerate_results(b.graph, ss))
    assert out and all(len(e) <= 1 for e, _ in out)


def test_molesp_may_miss_non_property9_m4():
    """fig6's result is 4-simple but not a rooted merge: no guarantee, and
    some orders do miss it (faithful to the paper's scoping)."""
    b = gen.fig6()
    missed = [
        o for o in range(60)
        if not molesp(b.graph, b.seed_sets, rng_seed=o).results
    ]
    assert missed


def test_molesp_prunes_vs_gam_on_line():
    """Figure 11 shape: MoLESP builds fewer provenances than GAM."""
    from repro.core import gam

    b = gen.line(10, 4)
    assert (
        molesp(b.graph, b.seed_sets).stats.built
        < gam(b.graph, b.seed_sets).stats.built
    )


def test_molesp_prunes_vs_gam_on_comb():
    from repro.core import gam

    b = gen.comb(4, 1, 2, 2)
    assert (
        molesp(b.graph, b.seed_sets).stats.built
        < gam(b.graph, b.seed_sets).stats.built
    )
