"""Tests for CTP filters (§2, §4.8): UNI, LABEL, MAX, LIMIT, SCORE/TOP,
timeout — pushed into every algorithm."""
import pytest

from repro.core import ALGORITHMS, bft, bft_am, gam, molesp
from repro.core.bruteforce import enumerate_results
from repro.core.filters import CTPFilters
from repro.core.scoring import label_diversity, size_score, specificity_score
from repro.graph import generators as gen
from repro.graph.model import Edge, LocalGraph
from repro.graph.random_graphs import random_graph
from repro.lang import ParseError, parse

from tests.helpers import keys
from tests.test_gc_pause import ENDS, INPUTS

ALGOS = [gam, molesp, bft]


@pytest.mark.parametrize("algo", ALGOS, ids=["gam", "molesp", "bft"])
@pytest.mark.parametrize("trial", range(4))
def test_uni_filter_matches_bruteforce(algo, trial):
    g = random_graph(7, 10, seed=500 + trial)
    nodes = sorted(g.nodes)
    ss = [[nodes[0]], [nodes[3]], [nodes[6]]]
    expect = keys(enumerate_results(g, ss, uni=True))
    assert keys(algo(g, ss, filters=CTPFilters(uni=True))) == expect


@pytest.mark.parametrize("algo", ALGOS, ids=["gam", "molesp", "bft"])
def test_uni_excludes_t_beta_on_figure1(algo):
    b = gen.figure1()
    out = algo(b.graph, b.seed_sets, filters=CTPFilters(uni=True))
    assert frozenset({1, 2, 16, 17}) not in {r.edges for r in out.results}


def test_bidirectional_finds_t_beta():
    """R3: t_beta is only reachable treating edges as undirected."""
    b = gen.figure1()
    out = molesp(b.graph, b.seed_sets)
    assert frozenset({1, 2, 16, 17}) in {r.edges for r in out.results}


@pytest.mark.parametrize("algo", ALGOS, ids=["gam", "molesp", "bft"])
@pytest.mark.parametrize("max_edges", [2, 3, 5])
def test_max_filter_matches_bruteforce(algo, max_edges):
    g = random_graph(7, 11, seed=520)
    nodes = sorted(g.nodes)
    ss = [[nodes[1]], [nodes[4]]]
    expect = keys(enumerate_results(g, ss, max_edges=max_edges))
    assert keys(algo(g, ss, filters=CTPFilters(max_edges=max_edges))) == expect


@pytest.mark.parametrize("algo", ALGOS, ids=["gam", "molesp", "bft"])
def test_label_filter_matches_bruteforce(algo):
    g = random_graph(7, 12, seed=530, n_labels=3)
    nodes = sorted(g.nodes)
    ss = [[nodes[0]], [nodes[5]]]
    lbl = frozenset({"l0", "l1"})
    expect = keys(enumerate_results(g, ss, labels=lbl))
    assert keys(algo(g, ss, filters=CTPFilters(labels=lbl))) == expect


def test_label_filter_restricts_chain():
    b = gen.chain(3)  # labels alternate "up"/"down"
    out = molesp(b.graph, b.seed_sets, filters=CTPFilters(labels=frozenset({"up"})))
    assert len(out.results) == 1  # only the all-"up" path remains


@pytest.mark.parametrize("algo", ALGOS, ids=["gam", "molesp", "bft"])
def test_limit_stops_after_k(algo):
    b = gen.chain(4)
    out = algo(b.graph, b.seed_sets, filters=CTPFilters(limit=5))
    assert len(out.results) == 5
    assert out.stop == "limit"


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_limit_zero_runs_no_search(algo):
    b = gen.star(4, 2)
    out = ALGORITHMS[algo](b.graph, b.seed_sets, filters=CTPFilters(limit=0))
    assert out.results == [] and out.stop == "limit"
    assert out.stats.built == 0


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_top_zero_runs_no_search(algo):
    """TOP 0 keeps no tree, so like LIMIT 0 it searches nothing."""
    b = gen.star(4, 2)
    out = ALGORITHMS[algo](
        b.graph, b.seed_sets, filters=CTPFilters(score=size_score, top_k=0)
    )
    assert out.results == [] and out.stop == "limit"
    assert out.stats.built == 0


def test_top_one_keeps_its_counters():
    """TOP k >= 1 runs the whole search: the counters are those of the
    unranked search."""
    b = gen.star(4, 2)
    full = molesp(b.graph, b.seed_sets)
    top = molesp(b.graph, b.seed_sets, filters=CTPFilters(score=size_score, top_k=1))
    assert len(top.results) == 1 and top.stop == "exhausted"
    assert top.stats.built == full.stats.built > 0
    assert top.stats.results_found == full.stats.results_found


def test_limit_one_is_first_result_only():
    b = gen.chain(5)
    out = molesp(b.graph, b.seed_sets, filters=CTPFilters(limit=1))
    assert len(out.results) == 1


def test_score_attached_to_results():
    b = gen.chain(2)
    out = molesp(b.graph, b.seed_sets, filters=CTPFilters(score=size_score))
    assert all(r.score is not None for r in out.results)


@pytest.mark.parametrize("algo", ALGOS, ids=["gam", "molesp", "bft"])
def test_top_k_keeps_best(algo):
    b = gen.figure1()
    out_all = algo(b.graph, b.seed_sets, filters=CTPFilters(score=size_score))
    out_top = algo(
        b.graph, b.seed_sets, filters=CTPFilters(score=size_score, top_k=3)
    )
    assert len(out_top.results) == 3
    best = sorted((r.score for r in out_all.results), reverse=True)[:3]
    assert [r.score for r in out_top.results] == best


def test_score_functions_orthogonal_to_search():
    """R2: changing the score function never changes the result *set*."""
    b = gen.figure1()
    base = keys(molesp(b.graph, b.seed_sets))
    for fn in (size_score, label_diversity, specificity_score):
        out = molesp(b.graph, b.seed_sets, filters=CTPFilters(score=fn))
        assert keys(out) == base


def test_score_values():
    g = LocalGraph([Edge(0, 1, "a", 2), Edge(1, 2, "b", 3)])
    out = molesp(g, [[1], [3]], filters=CTPFilters(score=label_diversity))
    (r,) = out.results
    assert r.score == 1.0  # 2 distinct labels / 2 edges


def test_top_k_needs_score():
    """The grammar is SCORE sigma [TOP k]: TOP alone is rejected, in code
    and in EQL."""
    with pytest.raises(ValueError, match="SCORE"):
        CTPFilters(top_k=1)
    with pytest.raises(ParseError, match="SCORE"):
        parse('SELECT w WHERE CTP("A", "B", *w) TOP 1')


@pytest.mark.parametrize("kw", [
    {"limit": -1}, {"score": size_score, "top_k": -1},
], ids=["limit", "top_k"])
def test_negative_limit_and_top_k_rejected(kw):
    """The parser reads no negative LIMIT or TOP; the Python API rejects
    them too, instead of cutting at the first result or slicing off the
    last."""
    with pytest.raises(ValueError, match=">= 0"):
        CTPFilters(**kw)


def test_unknown_score_names_the_known_ones():
    with pytest.raises(ParseError, match="nosuch.*size, diversity, specificity"):
        parse('SELECT w WHERE CTP("A", "B", *w) SCORE nosuch')


@pytest.mark.parametrize("algo", ALGOS, ids=["gam", "molesp", "bft"])
def test_timeout_flag_set(algo):
    b = gen.star(10, 3)
    out = algo(b.graph, b.seed_sets, filters=CTPFilters(timeout_s=0.0))
    assert out.stop == "timeout"


@pytest.mark.parametrize(
    "algo", ALGOS + [bft_am], ids=["gam", "molesp", "bft", "bft_am"]
)
def test_max_built_budget(algo):
    b = gen.star(8, 2)
    out = algo(b.graph, b.seed_sets, filters=CTPFilters(max_built=100))
    assert out.stop == "budget"
    assert out.stats.built <= 101


# What perfbench reads, (exhausted, limit_hit, timed_out), for each stop.
PERFBENCH_FLAGS = {
    "exhausted": (True, False, False),
    "limit": (False, True, False),
    "timeout": (False, False, True),
    "budget": (False, False, True),
}


@pytest.mark.parametrize("end", sorted(ENDS))
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_perfbench_flags_follow_stop(algo, end):
    g, ss = INPUTS["random"]()
    filters, stop = ENDS[end]
    out = ALGORITHMS[algo](g, ss, filters=filters)
    assert out.stop == stop
    assert (out.exhausted, out.limit_hit, out.timed_out) == PERFBENCH_FLAGS[stop]


def test_combined_filters():
    g = random_graph(7, 11, seed=540)
    nodes = sorted(g.nodes)
    ss = [[nodes[0]], [nodes[4]]]
    expect = keys(
        enumerate_results(g, ss, uni=True, max_edges=4, labels=frozenset({"l0", "l1"}))
    )
    got = keys(
        molesp(
            g, ss,
            filters=CTPFilters(uni=True, max_edges=4, labels=frozenset({"l0", "l1"})),
        )
    )
    assert got == expect
