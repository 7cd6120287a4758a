"""Breadth-first tree search baselines: BFT, BFT-M, BFT-AM (§4.1, §4.3).

Unlike the GAM family, BFT trees are unrooted edge sets grown from *any*
of their nodes; potential results must therefore be minimized (non-seed
leaves stripped) before reporting, and the same tree is rebuilt in many
more ways — the reasons these baselines lose in Figure 10. The budget,
result reporting (seed bindings read off a tree's nodes) and the outcome
are the shared ones of :class:`~.engine.CTPSearch`.
"""
from __future__ import annotations

from collections import deque

from ..graph.model import LocalGraph
from .engine import CTPSearch, is_all_nodes
from .filters import CTPFilters
from .tree import ResultTree


def tree_leaves(edges: frozenset[int], g: LocalGraph) -> set[int]:
    deg: dict[int, int] = {}
    for e in edges:
        s, d = g.edge_endpoints(e)
        deg[s] = deg.get(s, 0) + 1
        deg[d] = deg.get(d, 0) + 1
    return {n for n, c in deg.items() if c == 1}


def minimize(
    edges: frozenset[int], g: LocalGraph, node_sets: dict[int, int]
) -> frozenset[int]:
    """Iteratively strip non-seed leaves — the §4.1 minimization step
    (exactly Def. 2.8's minimality condition (i))."""
    cur = set(edges)
    incident: dict[int, set[int]] = {}
    deg: dict[int, int] = {}
    for e in cur:
        s, d = g.edge_endpoints(e)
        for n in (s, d):
            incident.setdefault(n, set()).add(e)
            deg[n] = deg.get(n, 0) + 1
    frontier = deque(n for n, c in deg.items() if c == 1 and not node_sets.get(n, 0))
    while frontier:
        n = frontier.popleft()
        if deg.get(n, 0) != 1:
            continue
        (e,) = (x for x in incident[n] if x in cur)
        cur.discard(e)
        s, d = g.edge_endpoints(e)
        other = d if s == n else s
        deg[n] -= 1
        deg[other] -= 1
        if deg[other] == 1 and not node_sets.get(other, 0):
            frontier.append(other)
    return frozenset(cur)


def is_unidirectional(edges: frozenset[int], g: LocalGraph) -> bool:
    """True iff the tree is root-directed (UNI): one node, its root, has
    tree-in-degree 0 and every other node in-degree 1, so that directed
    paths lead from the root to every leaf. The edgeless tree is."""
    dsts: set[int] = set()
    srcs = []
    for e in edges:
        s, d = g.edge_endpoints(e)
        if d in dsts:
            return False
        dsts.add(d)
        srcs.append(s)
    return not edges or len({s for s in srcs if s not in dsts}) == 1


class _UTree:
    __slots__ = ("edges", "nodes", "sat")

    def __init__(self, edges, nodes, sat) -> None:
        self.edges, self.nodes, self.sat = edges, nodes, sat

    @property
    def size(self) -> int:
        return len(self.edges)


class BFTSearch(CTPSearch):
    """Generation-ordered (FIFO) unrooted tree search. ``merge`` is "none"
    (BFT), "once" (BFT-M) or "aggressive" (BFT-AM)."""

    def __init__(
        self,
        graph: LocalGraph,
        seed_sets: list,
        merge: str = "none",
        filters: CTPFilters = CTPFilters(),
    ) -> None:
        if any(is_all_nodes(s) for s in seed_sets):
            raise ValueError("BFT baselines do not support N seed sets")
        super().__init__(graph, seed_sets, filters)
        self.merge = merge
        self.memory: set[frozenset[int]] = set()
        self.queue: deque[_UTree] = deque()
        self.node_index: dict[int, list[_UTree]] = {}

    def _report_minimized(self, t: _UTree) -> None:
        """Minimize (§4.1) then report, deduplicating minimized results."""
        mins = minimize(t.edges, self.g, self.node_sets)
        if self.f.uni and not is_unidirectional(mins, self.g):
            return
        nodes = {v for e in mins for v in self.g.edge_endpoints(e)} or t.nodes
        self._report(
            ResultTree(mins, frozenset(nodes), self._bindings(t.nodes))
        )

    def _accept(self, t: _UTree, mergeable: bool) -> None:
        """A newly built tree: report if complete, else enqueue (+index)."""
        if t.sat == self.full_mask:
            self._report_minimized(t)
            return  # a full tree cannot gain seeds (Grow2 blocks them all)
        self.queue.append(t)
        if self.merge != "none" and mergeable:
            for n in t.nodes:
                self.node_index.setdefault(n, []).append(t)

    def _merges(self, t: _UTree) -> list[_UTree]:
        out = []
        seen: set[int] = set()
        for n in t.nodes:
            for p in self.node_index.get(n, ()):
                if id(p) in seen or p.edges == t.edges:
                    continue
                seen.add(id(p))
                self.stats.merges_tried += 1
                shared = t.nodes & p.nodes
                if len(shared) != 1:
                    continue
                (sn,) = shared
                overlap = t.sat & p.sat
                if overlap & ~self.node_sets.get(sn, 0):
                    continue
                if (
                    self.f.max_edges is not None
                    and t.size + p.size > self.f.max_edges
                ):
                    continue
                merged = _UTree(t.edges | p.edges, t.nodes | p.nodes, t.sat | p.sat)
                if merged.edges in self.memory:
                    continue
                self.memory.add(merged.edges)
                self._check_budget()
                self.stats.built += 1
                self.stats.merges_done += 1
                out.append(merged)
        return out

    def _search(self) -> None:
        for n, bits in sorted(self.node_sets.items()):
            self.stats.built += 1
            self._accept(_UTree(frozenset(), frozenset((n,)), bits), True)
        while self.queue:
            self._check_budget()
            t = self.queue.popleft()
            if self.f.max_edges is not None and t.size >= self.f.max_edges:
                continue  # MAX
            grown: list[_UTree] = []
            for u in t.nodes:
                for a in self.g.adj_of(u):
                    if self.f.labels is not None and a.label not in self.f.labels:
                        continue
                    if a.other in t.nodes:  # Grow1
                        continue
                    if self.node_sets.get(a.other, 0) & t.sat:  # Grow2
                        continue
                    e2 = t.edges | {a.eid}
                    if e2 in self.memory:
                        continue
                    self.memory.add(e2)
                    self._check_budget()
                    self.stats.built += 1
                    self.stats.grows += 1
                    bits = self.node_sets.get(a.other, 0)
                    grown.append(_UTree(e2, t.nodes | {a.other}, t.sat | bits))
            for t2 in grown:
                self._accept(t2, True)
                if self.merge == "none":
                    continue
                work = deque(self._merges(t2))
                while work:
                    m = work.popleft()
                    if self.merge == "aggressive":
                        self._accept(m, True)
                        work.extend(self._merges(m))
                    else:  # BFT-M: merge results don't merge again
                        self._accept(m, False)
