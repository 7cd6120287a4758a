"""Mo never fires under UNI: MoLESP ≡ LESP and MoESP ≡ ESP.

§4.8 enforces UNI when a provenance is created, so a Mo copy (§4.5) would
have to stay root-directed. Every UNI tree is root-directed from its own
root: Grow adds an edge into the new root, and Merge joins two such trees
at their shared root. A copy re-rooted at another seed is therefore never
root-directed, and the Mo variants under UNI must behave exactly as their
Mo-free twins: the same results with the same bindings, the same ``stop``
and every ``SearchStats`` counter equal.
"""
from dataclasses import replace

import pytest

from repro.core.api import PRESETS
from repro.core.engine import ALL_NODES, RootedSearch
from repro.core.filters import CTPFilters
from repro.graph.random_graphs import random_graph

from tests.helpers import hub_graph


def _random_case(seed):
    """A random graph with multi-node seed sets, one node shared by two."""
    g = random_graph(10, 17, seed=seed)
    n = sorted(g.nodes)
    return g, [[n[0], n[3]], [n[3], n[6]], [n[9]]]


CASES = {
    "hub0": lambda: hub_graph(0),
    "hub1": lambda: hub_graph(1),
    **{f"random{s}": (lambda s=s: _random_case(s)) for s in (1, 2, 7, 11)},
}

FILTERS = {
    "uni": CTPFilters(uni=True),
    "uni_limit1": CTPFilters(uni=True, limit=1),
    "uni_budget": CTPFilters(uni=True, max_built=50),
}


def _outcome(g, seed_sets, preset, filters, multi_queue):
    cfg = replace(PRESETS[preset], multi_queue=multi_queue)
    return RootedSearch(g, seed_sets, cfg, filters).run()


def _same(mo, base):
    assert mo.stop == base.stop
    for name, value in base.stats.__dict__.items():
        if name != "elapsed_s":
            assert getattr(mo.stats, name) == value, name
    assert [r.key() for r in mo.results] == [r.key() for r in base.results]


@pytest.mark.parametrize("multi_queue", [False, True], ids=["one_queue", "multi_queue"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_mo_variants_equal_their_base_under_uni(case, multi_queue):
    g, ss = CASES[case]()
    for name, filters in FILTERS.items():
        for mo, base in (("MoLESP", "LESP"), ("MoESP", "ESP")):
            _same(_outcome(g, ss, mo, filters, multi_queue),
                  _outcome(g, ss, base, filters, multi_queue))


def test_mo_variants_equal_their_base_under_uni_with_an_n_set():
    g, ss = hub_graph(0)
    n_sets = [ss[0], ss[1], ALL_NODES]
    for filters in (CTPFilters(uni=True, max_edges=3),
                    CTPFilters(uni=True, limit=3)):
        for mo, base in (("MoLESP", "LESP"), ("MoESP", "ESP")):
            _same(_outcome(g, n_sets, mo, filters, False),
                  _outcome(g, n_sets, base, filters, False))


def test_uni_searches_find_results():
    """The equivalence above is not between empty searches: the exhaustive
    UNI searches find results, and the budget cut stops early."""
    for case in sorted(CASES):
        g, ss = CASES[case]()
        out = _outcome(g, ss, "MoLESP", CTPFilters(uni=True), False)
        assert out.stop == "exhausted" and out.results, case
        cut = _outcome(g, ss, "MoLESP", FILTERS["uni_budget"], False)
        assert cut.stop == "budget", case
