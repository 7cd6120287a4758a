"""The Merge-walk skip of ``RootedSearch._integrate`` changes no output.

When every seed signature registered at a root overlaps the seed sets
that the new tree holds outside the root, Merge2 rejects every peer, and
the engine skips the walk. ``_LinearWalk`` keeps the walk over every
peer as the reference. Each search here must give the reference's
results, ``stop`` and every ``SearchStats`` counter, under every preset
and filter, with one queue and with §4.9 multi-queue, on random small
graphs and on a hub-shaped graph where the skip fires.
"""
from dataclasses import replace

import pytest

from repro.core.api import PRESETS
from repro.core.engine import ALL_NODES, RootedSearch
from repro.core.filters import CTPFilters
from repro.graph.model import LocalGraph
from repro.graph.random_graphs import random_graph

from tests.helpers import hub_graph


class _LinearWalk(RootedSearch):
    """The rooted search that walks every peer: it overrides only the
    engine's choice of the peers to walk.

    ``skippable`` holds ``stats.built`` at each walk that the skip
    removes (every peer fails Merge2), so a test can check that its graph
    exercises the skip and cut the search there."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.skippable: list[int] = []

    def _merge_peers(self, rec, blocked):
        peers = rec[0]
        if all(blocked & p.sat for p in peers):
            self.skippable.append(self.stats.built)
        return peers


def _small_graph(seed: int) -> tuple[LocalGraph, list[list[int]]]:
    g = random_graph(9, 14, seed=seed)
    n = sorted(g.nodes)
    return g, [[n[0], n[4]], [n[5]], [n[8]]]


GRAPHS = {
    "hub0": lambda: hub_graph(0),
    "hub1": lambda: hub_graph(1),
    "random3": lambda: _small_graph(3),
    "random5": lambda: _small_graph(5),
}

FILTERS = {
    "none": CTPFilters(),
    "uni": CTPFilters(uni=True),
    "label": CTPFilters(labels=frozenset({"l0", "l1"})),
    "max": CTPFilters(max_edges=4),
    "limit1": CTPFilters(limit=1),
    "limit3": CTPFilters(limit=3),
    "budget": CTPFilters(max_built=60),
}


def _pair(graph, seed_sets, preset, filters, multi_queue=False):
    cfg = replace(PRESETS[preset], multi_queue=multi_queue)
    ref = _LinearWalk(graph, seed_sets, cfg, filters)
    expected = ref.run()
    got = RootedSearch(graph, seed_sets, cfg, filters).run()
    return expected, got, ref.skippable


def _same(expected, got):
    assert got.stop == expected.stop
    assert got.stats.__dict__.keys() == expected.stats.__dict__.keys()
    for name, value in expected.stats.__dict__.items():
        if name != "elapsed_s":
            assert getattr(got.stats, name) == value, name
    assert [r.key() for r in got.results] == [r.key() for r in expected.results]


@pytest.mark.parametrize("multi_queue", [False, True], ids=["one_queue", "multi_queue"])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_skip_matches_linear_walk(graph, multi_queue):
    g, ss = GRAPHS[graph]()
    for preset in PRESETS:
        for name, filters in FILTERS.items():
            expected, got, _ = _pair(g, ss, preset, filters, multi_queue)
            _same(expected, got)


def test_hub_graph_exercises_the_skip():
    """The equivalence above is tested where the skip fires: on the hub
    graphs, in exhaustive MoLESP runs, many walks reject every peer."""
    for graph in ("hub0", "hub1"):
        g, ss = GRAPHS[graph]()
        for filters in (CTPFilters(), CTPFilters(uni=True)):
            expected, got, skippable = _pair(g, ss, "MoLESP", filters)
            assert expected.stop == "exhausted"
            assert len(skippable) >= 10, (graph, filters)
            _same(expected, got)


@pytest.mark.parametrize("uni", [False, True], ids=["bidirectional", "uni"])
def test_budget_stops_where_the_walk_stops(uni):
    """``max_built`` cuts at the counts where walks are skipped, and one
    past them: the budget check that a skipped walk runs stops the search
    at the same tree and with the same counters as the walk would."""
    g, ss = GRAPHS["hub0"]()
    skippable = _pair(g, ss, "MoLESP", CTPFilters(uni=uni))[2]
    counts = sorted(set(skippable))
    for built in counts:
        for budget in (built, built + 1):
            filters = CTPFilters(uni=uni, max_built=budget)
            expected, got, _ = _pair(g, ss, "MoLESP", filters)
            assert expected.stop == "budget"
            _same(expected, got)


@pytest.mark.parametrize("graph", ["hub0", "hub1"])
@pytest.mark.parametrize("uni,stride", [(True, 1), (False, 75)],
                         ids=["uni", "bidirectional"])
def test_budget_stops_at_every_cut(graph, uni, stride):
    """``max_built`` cuts MoLESP at every ``built`` count of a UNI run
    (90-105 trees), and every ``stride`` trees of a bidirectional one
    (2.5-2.7k trees): each cut stops as the linear walk does."""
    g, ss = GRAPHS[graph]()
    full = _pair(g, ss, "MoLESP", CTPFilters(uni=uni))[0].stats.built
    for budget in range(1, full + 1, stride):
        filters = CTPFilters(uni=uni, max_built=budget)
        expected, got, _ = _pair(g, ss, "MoLESP", filters)
        assert expected.stop == "budget"
        _same(expected, got)


def test_n_set_matches_linear_walk():
    g, ss = GRAPHS["hub0"]()
    n_sets = [ss[0], ss[1], ALL_NODES]
    for preset in PRESETS:
        for filters in (CTPFilters(max_edges=3), CTPFilters(limit=3)):
            expected, got, _ = _pair(g, n_sets, preset, filters)
            _same(expected, got)
