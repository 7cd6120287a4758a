"""Shared test helpers."""
from __future__ import annotations

import itertools

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
        if not all(c.matches(label, types) for c in pred.conds):
            return False
    return True
