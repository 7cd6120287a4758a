"""Unified rooted CTP search engine: GAM, ESP, MoESP, LESP and MoLESP.

Implements Algorithms 1-5 of §4 with the variant switches factored into
:class:`SearchConfig`:

* ``esp``  — edge-set pruning (Def. 4.3): the history stores edge *sets*
  instead of rooted trees;
* ``mo``   — MoESP tree injection (§4.5): whenever Grow/Merge produces a
  tree with strictly more seeds than its children, re-rooted copies at
  every seed node are added (Grow disabled on them);
* ``lesp`` — limited edge-set pruning (§4.6): a tree rooted at ``n`` with
  seed signature |ss_n| >= 3 and degree d_n >= 3 escapes ESP pruning if no
  tree with the same edges is already rooted at ``n`` (Algorithm 4);
* ``multi_queue`` — §4.9: one priority queue per seed-set signature, Grow
  pops from the queue holding the fewest pending candidates
  (large-seed-set robustness).

``N`` seed sets (all graph nodes, §4.9(i)) are passed as the
:data:`ALL_NODES` sentinel: no INIT trees are created for them, any node
matches them, and every tree satisfying all concrete sets is a result.

Exploration order: smallest-tree-first priority (the paper's §5.4 setting)
with FIFO tie-breaks by default; ``rng_seed`` randomizes tie-breaks, which
the tests use to exercise "bad" execution orders for the incompleteness
counter-examples (the paper's completeness claims are order-independent,
and are tested as such).

Grow queue: a Grow candidate is a (tree, edge) pair. A registered tree's
candidates are computed once, when it is queued. Under FIFO ties they
would pop as one contiguous block, so the tree takes one heap entry whose
candidate list is consumed in place: a tree rooted at a hub costs one heap
push, not one per incident edge, so a LIMIT search that stops early pays
no heap push for the edges it never pops. Under random ties every
candidate draws its own key and takes its own entry. The multi-queue rule
counts pending candidates, not heap entries.
"""
from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from random import Random

from ..graph.model import Adj, LocalGraph
from .filters import CTPFilters
from .tree import ResultTree, RTree

ALL_NODES = "ALL_NODES"
"""Sentinel for an N (all-nodes) seed set — §4.9(i)."""


def is_all_nodes(seed_set) -> bool:
    """True iff ``seed_set`` is the N (all-nodes) sentinel."""
    return isinstance(seed_set, str) and seed_set == ALL_NODES


@dataclass(frozen=True)
class SearchConfig:
    esp: bool = False
    mo: bool = False
    lesp: bool = False
    multi_queue: bool = False
    rng_seed: int | None = None
    # Queue priority: "size" (smallest tree first — the paper's §5.4
    # setting) or "random" (fully arbitrary order; used by tests to probe
    # order-dependent incompleteness, which smallest-first can mask).
    priority: str = "size"


@dataclass
class SearchStats:
    built: int = 0          # provenances constructed (incl. subsequently pruned)
    kept: int = 0           # provenances that survived isNew
    pruned: int = 0
    grows: int = 0          # Grow pops executed
    merges_tried: int = 0
    merges_done: int = 0
    results_found: int = 0
    elapsed_s: float = 0.0


@dataclass
class SearchOutcome:
    results: list[ResultTree]
    stats: SearchStats
    exhausted: bool
    timed_out: bool
    limit_hit: bool

    @property
    def completed(self) -> bool:
        """True iff the search ran to queue exhaustion (no budget cut)."""
        return self.exhausted and not self.timed_out

    def edge_sets(self) -> set[frozenset[int]]:
        return {r.edges for r in self.results}


class _Stop(Exception):
    def __init__(self, timed_out: bool) -> None:
        self.timed_out = timed_out


class RootedSearch:
    """One CTP evaluation ``g(S_1..S_m, F)`` on an in-memory graph."""

    def __init__(
        self,
        graph: LocalGraph,
        seed_sets: list,
        config: SearchConfig = SearchConfig(),
        filters: CTPFilters = CTPFilters(),
    ) -> None:
        if not seed_sets:
            raise ValueError("CTP needs at least one seed set")
        self.g = graph
        self.cfg = config
        self.f = filters
        self.seed_sets = seed_sets
        self.concrete: list[int] = [
            i for i, s in enumerate(seed_sets) if not is_all_nodes(s)
        ]
        self.has_n_sets = len(self.concrete) < len(seed_sets)
        if not self.concrete:
            raise ValueError("at least one seed set must be concrete (§4.9)")
        # Bit i of node_sets[n] set iff n belongs to concrete seed set i.
        self.node_sets: dict[int, int] = {}
        self.full_mask = 0
        for i in self.concrete:
            nodes = seed_sets[i]
            if not nodes:
                raise ValueError(f"seed set {i} is empty")
            self.full_mask |= 1 << i
            for n in nodes:
                self.node_sets[n] = self.node_sets.get(n, 0) | (1 << i)
        # State shared by Algorithms 1-5.
        self.hist: set[frozenset[int]] = set()              # ESP history
        self.rooted_hist: set[tuple[frozenset[int], int]] = set()  # GAM history
        self.rooted_in: dict[int, list[RTree]] = {}
        self.rooted_edge_sets: dict[int, set[frozenset[int]]] = {}
        self.ss: dict[int, int] = {}                         # seed signatures
        self.queued: set[tuple[frozenset[int], int]] = set()  # (edges, root)
        self.queues: dict[int, list] = {}                    # sat -> heap
        self.pending: dict[int, int] = {}     # multi-queue: sat -> candidates left
        self.n_queued = 0
        self.adj_cache: dict[int, tuple[Adj, ...]] = {}      # see _grow_adj
        self.results: dict = {}
        self.stats = SearchStats()
        self._seq = 0
        if config.rng_seed is not None:
            self._rng = Random(config.rng_seed)
        elif config.priority == "random":
            self._rng = Random(0)
        else:
            self._rng = None
        self._deadline: float | None = None
        self._timed_out = False
        self._limit_hit = False

    # ---- small helpers ---------------------------------------------------
    def _check_budget(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise _Stop(timed_out=True)
        if self.f.max_built is not None and self.stats.built >= self.f.max_built:
            raise _Stop(timed_out=True)

    def _grow_adj(self, n: int) -> tuple[Adj, ...]:
        """Edges Grow may traverse from a tree rooted at ``n``. LABEL and
        UNI depend on the node only, so each adjacency is filtered once."""
        adj = self.adj_cache.get(n)
        if adj is None:
            labels = self.f.labels
            adj = self.adj_cache[n] = tuple(
                a for a in self.g.adj_of(n)
                if (labels is None or a.label in labels)
                # UNI: only traverse edges pointing from the new root at
                # a.other *into* the tree, so results are root-directed.
                and not (self.f.uni and a.outgoing)
            )
        return adj

    # ---- Algorithm 4: isNew ---------------------------------------------
    def _is_new(self, t: RTree) -> bool:
        if not self.cfg.esp:
            return (t.edges, t.root) not in self.rooted_hist
        if not t.edges:
            return True  # Def 4.3 only prunes non-empty edge sets
        if t.edges not in self.hist:
            return True
        if self.cfg.lesp:
            if (
                bin(self.ss.get(t.root, 0)).count("1") >= 3
                and self.g.degree.get(t.root, 0) >= 3
                and t.edges not in self.rooted_edge_sets.get(t.root, ())
            ):
                return True
        return False

    # ---- result handling -------------------------------------------------
    def _is_result(self, t: RTree) -> bool:
        if t.sat != self.full_mask:
            return False
        if self.has_n_sets or t.size == 0:
            return True  # every node matches an N set; 0-edge tree is a seed
        # Minimality: the only possible non-seed leaf is the root (Def 4.2);
        # a result needs the root to be a seed or internal (Observation 1).
        if self.node_sets.get(t.root, 0):
            return True
        deg = 0
        for e in t.edges:
            s, d = self.g.edge_endpoints(e)
            if s == t.root or d == t.root:
                deg += 1
                if deg >= 2:
                    return True
        return False

    def _report(self, t: RTree) -> None:
        rt = ResultTree(t.edges, t.nodes, t.seeds)
        key = rt.key()
        if key in self.results:
            return
        if self.f.score is not None:
            from dataclasses import replace

            rt = replace(rt, score=self.f.score(rt, self.g))
        self.results[key] = rt
        self.stats.results_found += 1
        if self.f.limit is not None and len(self.results) >= self.f.limit:
            raise _Stop(timed_out=False)

    # ---- registration (ProcessTree lines 2-15) ---------------------------
    def _register(self, t: RTree) -> bool:
        """Record a surviving tree; returns True iff it was a result (results
        are reported and do not Merge/Grow further)."""
        if self.cfg.esp:
            self.hist.add(t.edges)
        else:
            self.rooted_hist.add((t.edges, t.root))
        self.stats.kept += 1
        if self._is_result(t):
            self._report(t)
            # With only concrete seed sets a result cannot extend into
            # another result (Grow2 blocks every remaining seed), so the
            # search drops it. With N sets every supertree is a further
            # result (§4.9), so expansion continues.
            if not self.has_n_sets:
                return True
        self.rooted_in.setdefault(t.root, []).append(t)
        self.rooted_edge_sets.setdefault(t.root, set()).add(t.edges)
        if not t.no_grow:
            self._push_grows(t)
        return False

    def _register_mo(self, t: RTree) -> None:
        """Mo copies bypass the edge-set history (their edge set is already
        in it) and only deduplicate against trees rooted at the same node."""
        self.stats.kept += 1
        self.rooted_in.setdefault(t.root, []).append(t)
        self.rooted_edge_sets.setdefault(t.root, set()).add(t.edges)

    def _mo_copies(self, t: RTree, gained: bool) -> list[RTree]:
        if not self.cfg.mo or not gained:
            return []
        out = []
        for n in {node for _, node in t.seeds}:
            if n == t.root:
                continue
            if t.edges in self.rooted_edge_sets.get(n, ()):
                continue
            if self.f.uni and not self._rooted_at(t, n):
                # §4.8: UNI is enforced as a pre-condition on provenance
                # creation — a re-rooted copy must stay root-directed
                # (Grow/Merge preserve this invariant on their own).
                continue
            out.append(RTree(t.edges, t.nodes, n, t.sat, t.seeds, False, True))
        return out

    def _rooted_at(self, t: RTree, n: int) -> bool:
        """True iff every edge of ``t`` points away from ``n`` along the
        tree (n has tree-in-degree 0, every other node exactly 1)."""
        indeg: dict[int, int] = {}
        for e in t.edges:
            _, d = self.g.edge_endpoints(e)
            indeg[d] = indeg.get(d, 0) + 1
        if indeg.get(n, 0):
            return False
        return all(indeg.get(v, 0) == 1 for v in t.nodes if v != n)

    # ---- Grow ------------------------------------------------------------
    def _push_grows(self, t: RTree) -> None:
        """Queue the Grow candidates of ``t``: one heap entry for the whole
        tree under FIFO ties, one per candidate under random ties.

        An entry is ``(prio, tie, seq, tree, candidates)``, the candidates
        reversed so that ``pop()`` hands them out in adjacency order. The
        unique ``seq`` keeps heap comparisons away from the tree. Under
        FIFO ties the tie is ``seq`` itself: a tree's candidates would get
        consecutive keys, so they pop as one block either way.
        """
        if self.f.max_edges is not None and t.size >= self.f.max_edges:
            return  # MAX
        nodes, sat, node_sets = t.nodes, t.sat, self.node_sets
        cands = [
            a for a in reversed(self._grow_adj(t.root))
            if a.other not in nodes                   # Grow1
            and not node_sets.get(a.other, 0) & sat   # Grow2
        ]
        if not cands:
            return
        key = (t.edges, t.root)
        if key in self.queued:
            return
        self.queued.add(key)
        qkey = t.sat if self.cfg.multi_queue else 0
        heap = self.queues.setdefault(qkey, [])
        if self.cfg.multi_queue:
            self.pending[qkey] = self.pending.get(qkey, 0) + len(cands)
        self.n_queued += len(cands)
        prio = t.size + 1
        if self._rng is None:
            self._seq += 1
            heapq.heappush(heap, (prio, self._seq, self._seq, t, cands))
            return
        for a in reversed(cands):
            if self.cfg.priority == "random":
                prio = self._rng.random()
            self._seq += 1
            heapq.heappush(heap, (prio, self._rng.random(), self._seq, t, [a]))

    def _pop(self) -> tuple[RTree, Adj]:
        if self.cfg.multi_queue:
            # §4.9: serve the queue with the fewest pending candidates.
            qkey = min(
                (k for k, n in self.pending.items() if n),
                key=self.pending.__getitem__,
            )
            self.pending[qkey] -= 1
        else:
            qkey = 0
        heap = self.queues[qkey]
        t, cands = heap[0][3:]
        a = cands.pop()  # the entry's key is unchanged: the heap stays valid
        if not cands:
            heapq.heappop(heap)
        self.n_queued -= 1
        return t, a

    def _grow(self, t: RTree, a: Adj) -> RTree:
        other_bits = self.node_sets.get(a.other, 0)
        sat = t.sat | other_bits
        seeds = t.seeds
        if other_bits:
            seeds = seeds | {
                (i, a.other) for i in range(len(self.seed_sets))
                if other_bits >> i & 1
            }
        return RTree(
            t.edges | {a.eid},
            t.nodes | {a.other},
            a.other,
            sat,
            seeds,
            t.is_seed_path and other_bits == 0,
            False,
        )

    # ---- Merge -----------------------------------------------------------
    def _try_merge(self, t1: RTree, t2: RTree) -> RTree | None:
        self.stats.merges_tried += 1
        root = t1.root
        # Merge2, read per DESIGN.md §6: sat overlap only through the
        # shared root (required by the §4.5 MoESP walk-through). Tested
        # before Merge1: it is a mask test and rejects most attempts.
        if t1.sat & t2.sat & ~self.node_sets.get(root, 0):
            return None
        if (t1.nodes & t2.nodes) != {root}:  # Merge1
            return None
        if (
            self.f.max_edges is not None
            and t1.size + t2.size > self.f.max_edges
        ):
            return None
        self.stats.merges_done += 1
        return RTree(
            t1.edges | t2.edges,
            t1.nodes | t2.nodes,
            root,
            t1.sat | t2.sat,
            t1.seeds | t2.seeds,
            False,
            t1.no_grow or t2.no_grow,
        )

    # ---- integrate a Grow/INIT result: MergeAll + Mo injection ----------
    def _integrate(self, t: RTree, gained: bool) -> None:
        self.stats.built += 1
        self._check_budget()
        if not self._is_new(t):
            self.stats.pruned += 1
            return
        if self._register(t):
            return
        work: deque[RTree] = deque([t])
        for mc in self._mo_copies(t, gained):
            self.stats.built += 1
            self._register_mo(mc)
            work.append(mc)
        while work:
            cur = work.popleft()
            for p in list(self.rooted_in.get(cur.root, ())):
                if p is cur:
                    continue
                self._check_budget()
                merged = self._try_merge(cur, p)
                if merged is None:
                    continue
                self.stats.built += 1
                if not self._is_new(merged):
                    self.stats.pruned += 1
                    continue
                if self._register(merged):
                    continue
                work.append(merged)
                for mc in self._mo_copies(merged, True):
                    self.stats.built += 1
                    self._register_mo(mc)
                    work.append(mc)

    # ---- Algorithm 1 main loop ------------------------------------------
    def run(self) -> SearchOutcome:
        t0 = time.monotonic()
        if self.f.timeout_s is not None:
            self._deadline = t0 + self.f.timeout_s
        exhausted = False
        try:
            inited: set[int] = set()
            for i in self.concrete:
                for n in sorted(set(self.seed_sets[i])):
                    if n in inited:
                        continue
                    inited.add(n)
                    bits = self.node_sets[n]
                    t = RTree(
                        frozenset(),
                        frozenset((n,)),
                        n,
                        bits,
                        frozenset(
                            (j, n)
                            for j in range(len(self.seed_sets))
                            if bits >> j & 1
                        ),
                        True,
                        False,
                    )
                    self.ss[n] = self.ss.get(n, 0) | bits
                    self._integrate(t, gained=False)
            while self.n_queued:
                self._check_budget()
                t, a = self._pop()
                self.stats.grows += 1
                t2 = self._grow(t, a)
                if t2.is_seed_path:
                    self.ss[t2.root] = self.ss.get(t2.root, 0) | t2.sat
                self._integrate(t2, gained=self.node_sets.get(a.other, 0) != 0)
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
                results, key=lambda r: (-(r.score or 0.0), r.size, sorted(r.edges))
            )[: self.f.top_k]
        return SearchOutcome(
            results,
            self.stats,
            exhausted,
            self._timed_out,
            self._limit_hit,
        )
