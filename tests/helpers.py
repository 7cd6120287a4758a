"""Shared test helpers."""
from __future__ import annotations

import itertools

import numpy as np

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
