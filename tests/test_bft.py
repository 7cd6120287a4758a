"""Tests for the BFT family (§4.1, §4.3): completeness and minimization."""
import inspect
from inspect import Parameter as P

import pytest

from repro.core import ALGORITHMS, bft, bft_am, bft_m
from repro.core.bft import is_unidirectional, minimize, tree_leaves
from repro.core.bruteforce import enumerate_results
from repro.core.filters import CTPFilters
from repro.graph import generators as gen
from repro.graph.model import Edge, LocalGraph
from repro.graph.random_graphs import random_graph

from tests.helpers import keys

ALL_BFT = [bft, bft_m, bft_am]


@pytest.mark.parametrize("algo", ALL_BFT)
@pytest.mark.parametrize(
    "bundle",
    [gen.fig3(), gen.fig5(), gen.fig6(), gen.line(3, 1), gen.star(3, 2), gen.chain(3)],
    ids=["fig3", "fig5", "fig6", "line", "star", "chain"],
)
def test_bft_complete_on_examples(algo, bundle):
    expect = keys(enumerate_results(bundle.graph, bundle.seed_sets))
    out = algo(bundle.graph, bundle.seed_sets)
    assert out.stop == "exhausted"
    assert keys(out) == expect


@pytest.mark.parametrize("algo", ALL_BFT)
@pytest.mark.parametrize("trial", range(8))
def test_bft_complete_on_random_graphs(algo, trial):
    g = random_graph(6 + trial % 3, 8 + trial, seed=trial)
    nodes = sorted(g.nodes)
    seed_sets = [[nodes[0]], [nodes[2]], [nodes[4]]]
    expect = keys(enumerate_results(g, seed_sets))
    assert keys(algo(g, seed_sets)) == expect


def test_bft_results_are_minimal():
    """BFT must minimize: the reported trees have only seed leaves."""
    b = gen.figure1()
    out = bft(b.graph, b.seed_sets)
    seeds = {n for s in b.seed_sets for n in s}
    for r in out.results:
        for leaf in tree_leaves(r.edges, b.graph):
            assert leaf in seeds


def test_bft_equals_gam_family_results():
    from repro.core import gam

    b = gen.figure1()
    assert keys(bft(b.graph, b.seed_sets)) == keys(gam(b.graph, b.seed_sets))


def test_bft_rejects_all_nodes_sets():
    from repro.core import ALL_NODES

    b = gen.fig3()
    with pytest.raises(ValueError):
        bft(b.graph, [b.seed_sets[0], ALL_NODES])


@pytest.mark.parametrize("algo", ALL_BFT)
@pytest.mark.parametrize(
    "option, error",
    [({"multi_queue": True}, ValueError), ({"rng_seed": 5}, TypeError)],
    ids=["multi_queue", "rng_seed"],
)
def test_bft_rejects_rooted_options(algo, option, error):
    """BFT has one queue, so it rejects the rooted engine's multi-queue
    option instead of running without it; no entry point has a seeded
    tie order any more, so ``rng_seed`` is an unknown keyword, a
    TypeError like any other."""
    b = gen.fig3()
    with pytest.raises(error, match=next(iter(option))):
        algo(b.graph, b.seed_sets, **option)
    with pytest.raises(TypeError):
        algo(b.graph, b.seed_sets, filter=CTPFilters(limit=1))


def test_entry_points_take_one_option():
    """Every ``ALGORITHMS`` entry point takes ``(g, seed_sets, filters)``
    and one keyword-only option, ``multi_queue``: the exploration order
    is not an option (the tests draw other orders with
    ``tests/helpers.RandomOrder``)."""
    b = gen.fig3()
    for name, algo in ALGORITHMS.items():
        params = inspect.signature(algo).parameters
        assert [(p.name, p.kind) for p in params.values()] == [
            ("g", P.POSITIONAL_OR_KEYWORD),
            ("seed_sets", P.POSITIONAL_OR_KEYWORD),
            ("filters", P.POSITIONAL_OR_KEYWORD),
            ("multi_queue", P.KEYWORD_ONLY),
        ], name
        with pytest.raises(TypeError):
            algo(b.graph, b.seed_sets, rng_seed=0)


def test_bft_max_built_budget_cuts_search():
    b = gen.star(6, 2)
    out = bft(b.graph, b.seed_sets, filters=CTPFilters(max_built=10))
    assert out.stop == "budget"


def test_bft_limit_stops_early():
    b = gen.chain(4)
    out = bft(b.graph, b.seed_sets, filters=CTPFilters(limit=3))
    assert out.stop == "limit"
    assert len(out.results) == 3


# ---- minimize / is_unidirectional helpers --------------------------------

def test_minimize_strips_non_seed_leaves():
    # 1-2-3 with a dangling 2-4 branch; seeds {1},{3}
    g = LocalGraph(
        [Edge(0, 1, "a", 2), Edge(1, 2, "a", 3), Edge(2, 2, "a", 4)]
    )
    node_sets = {1: 1, 3: 2}
    assert minimize(frozenset({0, 1, 2}), g, node_sets) == frozenset({0, 1})


def test_minimize_keeps_seed_leaves():
    g = LocalGraph([Edge(0, 1, "a", 2), Edge(1, 2, "a", 3)])
    node_sets = {1: 1, 3: 2}
    assert minimize(frozenset({0, 1}), g, node_sets) == frozenset({0, 1})


def test_minimize_cascades():
    # chain 1-2-3-4-5, seeds {1},{2}: edges 3-4-5 stripped one by one
    g = LocalGraph([Edge(i, i + 1, "a", i + 2) for i in range(4)])
    node_sets = {1: 1, 2: 2}
    assert minimize(frozenset(range(4)), g, node_sets) == frozenset({0})


def test_is_unidirectional_path():
    g = LocalGraph([Edge(0, 1, "a", 2), Edge(1, 2, "a", 3)])
    assert is_unidirectional(frozenset({0, 1}), g)


def test_is_unidirectional_v_shape():
    # 1 -> 2 <- 3: no root reaches both leaves
    g = LocalGraph([Edge(0, 1, "a", 2), Edge(1, 3, "a", 2)])
    assert not is_unidirectional(frozenset({0, 1}), g)


def test_is_unidirectional_star_out():
    g = LocalGraph([Edge(0, 0, "a", 1), Edge(1, 0, "a", 2)])
    assert is_unidirectional(frozenset({0, 1}), g)


def test_is_unidirectional_empty():
    g = LocalGraph([Edge(0, 1, "a", 2)])
    assert is_unidirectional(frozenset(), g)
