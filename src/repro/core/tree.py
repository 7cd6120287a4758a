"""Rooted trees with provenance (Def. 4.1) and result trees.

A tree is identified by its frozen edge-id set plus (for the GAM family) a
distinguished root. ``sat`` is a bitmask over the *concrete* seed sets
(``N`` seed sets — §4.9 — carry no bits: any node matches them). A tree
stores no seed bindings: a result's (Def. 2.8 tuples) are read off its
nodes when it is reported."""
from __future__ import annotations

from dataclasses import dataclass


class RTree:
    """A rooted tree built by INIT/GROW/MERGE/Mo.

    ``is_seed_path`` — True iff this provenance is an (n, s)-rooted path
    (Def. 4.4): built by Grow-chains from a single INIT and containing
    exactly one seed. Drives the LESP seed signatures.

    ``no_grow`` — True iff the provenance includes a Mo step (§4.5): Grow
    is disabled on such trees, only Merge applies.

    No seed bindings: Grow2 and Merge2 bind each concrete set in ``sat``
    at one node of ``nodes``, where the search reads them for a result.
    """

    __slots__ = ("edges", "nodes", "root", "sat", "is_seed_path", "no_grow")

    def __init__(
        self,
        edges: frozenset[int],
        nodes: frozenset[int],
        root: int,
        sat: int,
        is_seed_path: bool,
        no_grow: bool,
    ) -> None:
        self.edges = edges
        self.nodes = nodes
        self.root = root
        self.sat = sat
        self.is_seed_path = is_seed_path
        self.no_grow = no_grow

    @property
    def size(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RTree(root={self.root}, edges={sorted(self.edges)}, "
            f"sat={bin(self.sat)})"
        )


@dataclass(frozen=True)
class ResultTree:
    """One CTP result: a minimal connecting tree plus its seed bindings.

    ``seeds`` maps concrete seed-set index -> bound node. Identity (for
    dedup across provenances) is (edges, seeds): the same edge set reported
    via different roots is one result.
    """

    edges: frozenset[int]
    nodes: frozenset[int]
    seeds: frozenset[tuple[int, int]]
    score: float | None = None

    @property
    def size(self) -> int:
        return len(self.edges)

    def key(self) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
        return (self.edges, self.seeds)

    def seed_of(self, set_idx: int) -> int:
        for i, n in self.seeds:
            if i == set_idx:
                return n
        raise KeyError(set_idx)
