"""Breadth-first tree search baselines: BFT, BFT-M, BFT-AM (§4.1, §4.3).

Unlike the GAM family, BFT trees are unrooted edge sets grown from *any*
of their nodes; potential results must therefore be minimized (non-seed
leaves stripped) before reporting, and the same tree is rebuilt in many
more ways — the reasons these baselines lose in Figure 10.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from ..graph.model import LocalGraph
from .engine import SearchOutcome, SearchStats, _Stop, is_all_nodes
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
    """True iff the tree has a root with directed paths to all leaves:
    exactly one node with tree-in-degree 0 and all others in-degree 1."""
    if not edges:
        return True
    indeg: dict[int, int] = {}
    nodes: set[int] = set()
    for e in edges:
        s, d = g.edge_endpoints(e)
        nodes.update((s, d))
        indeg[d] = indeg.get(d, 0) + 1
    roots = [n for n in nodes if indeg.get(n, 0) == 0]
    return len(roots) == 1 and all(indeg.get(n, 0) <= 1 for n in nodes)


class _UTree:
    __slots__ = ("edges", "nodes", "sat", "seeds")

    def __init__(self, edges, nodes, sat, seeds) -> None:
        self.edges, self.nodes, self.sat, self.seeds = edges, nodes, sat, seeds

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BFTConfig:
    merge: str = "none"  # "none" (BFT) | "once" (BFT-M) | "aggressive" (BFT-AM)


class BFTSearch:
    """Generation-ordered (FIFO) unrooted tree search."""

    def __init__(
        self,
        graph: LocalGraph,
        seed_sets: list,
        config: BFTConfig = BFTConfig(),
        filters: CTPFilters = CTPFilters(),
    ) -> None:
        if any(is_all_nodes(s) for s in seed_sets):
            raise ValueError("BFT baselines do not support N seed sets")
        self.g = graph
        self.cfg = config
        self.f = filters
        self.node_sets: dict[int, int] = {}
        self.full_mask = 0
        self.m = len(seed_sets)
        for i, nodes in enumerate(seed_sets):
            self.full_mask |= 1 << i
            for n in nodes:
                self.node_sets[n] = self.node_sets.get(n, 0) | (1 << i)
        self.memory: set[frozenset[int]] = set()
        self.queue: deque[_UTree] = deque()
        self.node_index: dict[int, list[_UTree]] = {}
        self.results: dict = {}
        self.stats = SearchStats()
        self._deadline: float | None = None
        self._timed_out = False
        self._limit_hit = False

    def _check_budget(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise _Stop(timed_out=True)
        if self.f.max_built is not None and self.stats.built >= self.f.max_built:
            raise _Stop(timed_out=True)

    def _report(self, t: _UTree) -> None:
        """Minimize (§4.1) then report, deduplicating minimized results."""
        mins = minimize(t.edges, self.g, self.node_sets)
        nodes = set()
        for e in mins:
            s, d = self.g.edge_endpoints(e)
            nodes.update((s, d))
        if not mins:
            nodes = set(t.nodes)
        if self.f.uni and not is_unidirectional(mins, self.g):
            return
        rt = ResultTree(mins, frozenset(nodes), t.seeds)
        if rt.key() in self.results:
            return
        if self.f.score is not None:
            from dataclasses import replace

            rt = replace(rt, score=self.f.score(rt, self.g))
        self.results[rt.key()] = rt
        self.stats.results_found += 1
        if self.f.limit is not None and len(self.results) >= self.f.limit:
            raise _Stop(timed_out=False)

    def _accept(self, t: _UTree, mergeable: bool) -> None:
        """A newly built tree: report if complete, else enqueue (+index)."""
        if t.sat == self.full_mask:
            self._report(t)
            return  # a full tree cannot gain seeds (Grow2 blocks them all)
        self.queue.append(t)
        if self.cfg.merge != "none" and mergeable:
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
                merged = _UTree(
                    t.edges | p.edges, t.nodes | p.nodes, t.sat | p.sat,
                    t.seeds | p.seeds,
                )
                if merged.edges in self.memory:
                    continue
                self.memory.add(merged.edges)
                self.stats.built += 1
                self.stats.merges_done += 1
                out.append(merged)
        return out

    def run(self) -> SearchOutcome:
        t0 = time.monotonic()
        if self.f.timeout_s is not None:
            self._deadline = t0 + self.f.timeout_s
        exhausted = False
        try:
            for n, bits in sorted(self.node_sets.items()):
                seeds = frozenset(
                    (i, n) for i in range(self.m) if bits >> i & 1
                )
                self.stats.built += 1
                self._accept(
                    _UTree(frozenset(), frozenset((n,)), bits, seeds), True
                )
            while self.queue:
                self._check_budget()
                t = self.queue.popleft()
                grown: list[_UTree] = []
                for u in t.nodes:
                    for a in self.g.adj_of(u):
                        if self.f.labels is not None and a.label not in self.f.labels:
                            continue
                        if a.other in t.nodes:  # Grow1
                            continue
                        if self.node_sets.get(a.other, 0) & t.sat:  # Grow2
                            continue
                        if (
                            self.f.max_edges is not None
                            and t.size + 1 > self.f.max_edges
                        ):
                            continue
                        e2 = t.edges | {a.eid}
                        if e2 in self.memory:
                            continue
                        self.memory.add(e2)
                        self.stats.built += 1
                        self.stats.grows += 1
                        bits = self.node_sets.get(a.other, 0)
                        seeds = t.seeds
                        if bits:
                            seeds = seeds | {
                                (i, a.other)
                                for i in range(self.m)
                                if bits >> i & 1
                            }
                        grown.append(
                            _UTree(e2, t.nodes | {a.other}, t.sat | bits, seeds)
                        )
                for t2 in grown:
                    self._check_budget()
                    self._accept(t2, True)
                    if self.cfg.merge == "none":
                        continue
                    work = deque(self._merges(t2))
                    while work:
                        m = work.popleft()
                        self._check_budget()
                        if self.cfg.merge == "aggressive":
                            self._accept(m, True)
                            work.extend(self._merges(m))
                        else:  # BFT-M: merge results don't merge again
                            self._accept(m, False)
            exhausted = True
        except _Stop as s:
            if s.timed_out:
                self._timed_out = True
            else:
                self._limit_hit = True
        self.stats.elapsed_s = time.monotonic() - t0
        results = sorted(
            self.results.values(), key=lambda r: (r.size, sorted(r.edges))
        )
        if self.f.top_k is not None and self.f.score is not None:
            results = sorted(
                results,
                key=lambda r: (-(r.score or 0.0), r.size, sorted(r.edges)),
            )[: self.f.top_k]
        return SearchOutcome(
            results,
            self.stats,
            exhausted,
            self._timed_out,
            self._limit_hit,
        )
