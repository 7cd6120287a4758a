"""White-box tests for engine internals: seed signatures (§4.6), Mo trees
(§4.5), provenance accounting, result tree invariants."""
from functools import partial

import pytest

from repro.core.engine import ALL_NODES, RootedSearch, SearchConfig
from repro.core.filters import CTPFilters
from repro.core.tree import ResultTree, RTree
from repro.graph import generators as gen
from repro.graph.model import Edge, LocalGraph

from tests.helpers import RandomOrder


def run_search(bundle, **cfg):
    s = RootedSearch(bundle.graph, bundle.seed_sets, SearchConfig(**cfg))
    out = s.run()
    return s, out


class PopRecorder(RootedSearch):
    """Records every tree queued for Grow and every (tree, edge) Grow
    candidate the queue hands out."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.pushed = []
        self.popped = []

    def _push_grows(self, t):
        self.pushed.append(t)
        super()._push_grows(t)

    def _pop(self):
        cand = super()._pop()
        if cand is not None:
            self.popped.append(cand)
        return cand


def grow_candidates(s, t):
    """The edges MAX, Grow1 and Grow2 leave ``t`` to grow along."""
    if s.f.max_edges is not None and t.size >= s.f.max_edges:
        return []
    return [a for a in s._grow_adj(t.root)
            if a.other not in t.nodes and not s.node_sets.get(a.other, 0) & t.sat]


class RandomPopRecorder(PopRecorder, RandomOrder):
    """A :class:`PopRecorder` whose Grow candidates pop in a seeded
    arbitrary order."""


def run_recorded(bundle, search=PopRecorder, **cfg):
    s = search(bundle.graph, bundle.seed_sets, SearchConfig(**cfg))
    out = s.run()
    # An exhaustive search pops every candidate it queued.
    assert out.stop == "exhausted"
    assert not any(s.queues.values()) and not any(s.pending.values())
    return s, out


def test_seed_signatures_on_fig5():
    """After a full MoLESP run on fig5, the center x has all three bits set
    (one rooted path from each seed reached it)."""
    b = gen.fig5()
    s, out = run_search(b, esp=True, mo=True, lesp=True)
    x = b.graph.nodes_by_label("x")[0]
    assert bin(s.ss[x]).count("1") == 3


def test_seed_signature_initialized_for_seeds():
    b = gen.fig3()
    s, _ = run_search(b)
    for i, (seed,) in enumerate(b.seed_sets):
        assert s.ss[seed] >> i & 1


def test_lesp_exemption_requires_degree_3():
    """Nodes of degree < 3 never escape ESP pruning (the d_n condition)."""
    b = gen.fig3()  # all nodes degree <= 2
    s, out = run_search(b, esp=True, lesp=True)
    assert out.results == []  # same incompleteness as plain ESP here


def test_mo_trees_disable_grow():
    """Trees whose provenance includes Mo must never enter the grow queue:
    MoESP registers Mo trees, and no Grow ever pops one. On fig4 (m=6)
    some merges of Mo copies are not yet results and have Grow edges."""
    b = gen.line(3, 1)
    s, out = run_recorded(b, esp=True, mo=True)
    # At least one Mo tree was registered (kept > hist size because Mo
    # copies share edge sets with their originals).
    assert out.stats.kept > len(s.hist)
    for b in (gen.line(3, 1), gen.fig4()):
        s, _ = run_recorded(b, esp=True, mo=True)
        assert any(t.no_grow for ts, _, _ in s.rooted.values() for t in ts)
        assert s.popped and not any(t.no_grow for t, _ in s.popped)


def test_rtree_properties():
    t = RTree(frozenset({1, 2}), frozenset({5, 6, 7}), 5, 0b11, False, False)
    assert t.size == 2
    assert "root=5" in repr(t)


def test_result_tree_seed_lookup_and_key():
    r = ResultTree(frozenset({1}), frozenset({2, 3}), frozenset({(0, 2), (1, 3)}))
    assert r.seed_of(0) == 2 and r.seed_of(1) == 3
    with pytest.raises(KeyError):
        r.seed_of(5)
    assert r.key() == (frozenset({1}), frozenset({(0, 2), (1, 3)}))


def test_stats_accounting_consistent():
    b = gen.star(4, 2)
    _, out = run_search(b, esp=True, mo=True, lesp=True)
    st = out.stats
    assert st.built == st.kept + st.pruned
    assert st.merges_done <= st.merges_tried
    assert st.results_found == len(out.results)


def test_grow2_blocks_second_seed_of_same_set():
    # Two S1 seeds in a row: 1 - 2 - 3 with S1={1,3}, S2={2}: the 2-edge
    # tree would contain both S1 nodes.
    g = LocalGraph([Edge(0, 1, "a", 2), Edge(1, 2, "a", 3)])
    s = RootedSearch(g, [[1, 3], [2]], SearchConfig())
    out = s.run()
    assert {r.edges for r in out.results} == {frozenset({0}), frozenset({1})}


def test_merge_root_seed_overlap_allowed():
    """The DESIGN.md §6 Merge2 reading: trees sharing a seed *root* merge
    (required by the §4.5 MoESP walk-through on fig3)."""
    b = gen.fig3()
    _, out = run_search(b, esp=True, mo=True)
    assert len(out.results) == 1


def test_queue_dedup_no_duplicate_entries():
    """No tree is queued twice, no (tree, edge) candidate is popped twice,
    every pop is one Grow, and every candidate of every queued tree is
    popped."""
    b = gen.line(3, 1)
    for search, cfg in ((PopRecorder, {}),
                        (PopRecorder, {"esp": True, "mo": True, "lesp": True}),
                        (partial(RandomPopRecorder, order=1), {}),
                        (PopRecorder, {"multi_queue": True})):
        s, out = run_recorded(b, search, **cfg)
        pairs = [(t.edges, t.root, a.eid) for t, a in s.popped]
        assert len(pairs) == len(set(pairs)) == out.stats.grows, cfg
        queued = [(t.edges, t.root) for t in s.pushed]
        assert len(queued) == len(set(queued)), cfg
        cands = {(t.edges, t.root, a.eid)
                 for t in s.pushed for a in grow_candidates(s, t)}
        assert set(pairs) == cands, cfg
        assert not any(t.no_grow for t in s.pushed), cfg


def test_timeout_zero_still_returns_outcome():
    b = gen.star(6, 2)
    s = RootedSearch(
        b.graph, b.seed_sets, SearchConfig(), CTPFilters(timeout_s=0.0)
    )
    out = s.run()
    assert out.stop == "timeout" and isinstance(out.results, list)


def test_unknown_all_nodes_only_rejected():
    b = gen.fig3()
    with pytest.raises(ValueError):
        RootedSearch(b.graph, [ALL_NODES], SearchConfig())
    with pytest.raises(ValueError):
        RootedSearch(b.graph, [], SearchConfig())
