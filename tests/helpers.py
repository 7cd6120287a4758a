"""Shared test helpers."""
from __future__ import annotations

import heapq
import itertools
from random import Random

import numpy as np

from repro.core import ALGORITHMS, PRESETS
from repro.core.engine import RootedSearch
from repro.core.filters import CTPFilters
from repro.core.tree import ResultTree
from repro.graph.model import Edge, LocalGraph
from repro.lang.ast import BGP, EdgePattern


def keys(results) -> set:
    """Canonical identity of a result collection: {(edges, seeds)}."""
    if hasattr(results, "results"):
        results = results.results
    return {(r.edges, r.seeds) for r in results}


def edge_sets(results) -> set[frozenset[int]]:
    if hasattr(results, "results"):
        results = results.results
    return {r.edges for r in results}


class RandomOrder(RootedSearch):
    """The rooted engine with its Grow candidates popped in a seeded
    arbitrary order instead of smallest tree first. The paper's
    completeness claims hold under any order, and the incompleteness
    counter-examples need orders that smallest-first avoids. Each
    candidate takes its own queue entry, keyed by two draws of
    ``Random(order)``. It runs with one queue only."""

    def __init__(self, *args, order: int, **kw) -> None:
        super().__init__(*args, **kw)
        assert not self.cfg.multi_queue
        self._rand = Random(order).random

    def _push_grows(self, t) -> None:
        if self.f.max_edges is not None and t.size >= self.f.max_edges:
            return  # MAX
        heap = self.queues.setdefault(0, [])
        for a in self._candidates(t):
            self._seq += 1
            heapq.heappush(heap, [(self._rand(), self._rand()), self._seq, t,
                                  iter((a,))])


_PRESET_OF = {ALGORITHMS[name]: cfg for name, cfg in PRESETS.items()}


def in_order(algo, g: LocalGraph, seed_sets: list, order: int | None,
             filters: CTPFilters = CTPFilters()):
    """Run the rooted entry point ``algo`` (``gam`` ... ``molesp``) with
    its Grow candidates in the seeded order ``order`` (:class:`RandomOrder`);
    None runs ``algo`` itself, smallest tree first."""
    if order is None:
        return algo(g, seed_sets, filters)
    return RandomOrder(g, seed_sets, _PRESET_OF[algo], filters, order=order).run()


def group_job_count(sc, group: str) -> int:
    """The number of Spark jobs in job group ``group``. The status tracker
    learns of a job from the listener bus, which may lag behind the job,
    so the bus is drained first."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


def singleton_sets(*nodes: int) -> list[list[int]]:
    return [[n] for n in nodes]


def bgp_embeddings(g: LocalGraph, bgp: BGP, project: list[str]) -> set[tuple]:
    """Brute-force BGP answers: every assignment of graph edges to the
    BGP's edge patterns in which each variable takes one value and every
    condition holds (``Cond.matches``), projected on ``project``."""
    out = set()
    for edges in itertools.product(g.edges.values(), repeat=len(bgp.patterns)):
        binding: dict[str, int] = {}
        if all(_bind(g, binding, p, e) for p, e in zip(bgp.patterns, edges)):
            out.add(tuple(binding[v] for v in project))
    return out


def _bind(g: LocalGraph, binding: dict, p: EdgePattern, e: Edge) -> bool:
    for pred, value, label, types in (
        (p.e, e.id, e.label, frozenset()),
        (p.s, e.src, g.label(e.src), g.types(e.src)),
        (p.d, e.dst, g.label(e.dst), g.types(e.dst)),
    ):
        if binding.setdefault(pred.var, value) != value:
            return False
        if not pred.matches(label, types):
            return False
    return True


def hub_graph(seed: int) -> tuple[LocalGraph, list[list[int]]]:
    """A non-seed hub (node 0) with 9 spokes, each with a leaf, plus a
    few random chords. Seed sets 0 and 1 are leaves near the hub; set 2
    sits at the end of a 3-edge chain, so trees with sets 0 and 1 pile up
    at the hub before any with set 2 reaches it: those walks are the ones
    the engine's Merge-walk skip removes. Edges mostly point away from
    the hub, so the hub is also a UNI root."""
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for i in range(1, 10):
        edges += [(0, i), (i, 9 + i)]
    edges += [(0, 19), (19, 20), (20, 21)]
    while len(edges) < 27:
        u, v = (int(x) for x in rng.integers(1, 19, size=2))
        if u != v:
            edges.append((u, v))
    flip = rng.random(len(edges)) < 0.15
    g = LocalGraph(
        Edge(i, v, f"l{int(rng.integers(3))}", u) if f
        else Edge(i, u, f"l{int(rng.integers(3))}", v)
        for i, ((u, v), f) in enumerate(zip(edges, flip))
    )
    return g, [[10, 11, 12], [13, 14], [21]]
