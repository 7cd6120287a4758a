"""Unified rooted CTP search engine: GAM, ESP, MoESP, LESP and MoLESP.

Implements Algorithms 1-5 of §4 with the variant switches factored into
:class:`SearchConfig`:

* ``esp``  — edge-set pruning (Def. 4.3): the history stores edge *sets*
  instead of rooted trees;
* ``mo``   — MoESP tree injection (§4.5): whenever Grow/Merge produces a
  tree with strictly more seeds than its children, re-rooted copies at
  every seed node are added in node order (Grow disabled on them). Never
  under UNI: a UNI tree is root-directed from its own root, so a copy
  re-rooted at another node could not be (see
  :meth:`RootedSearch._mo_copies`);
* ``lesp`` — limited edge-set pruning (§4.6): a tree rooted at ``n`` with
  seed signature |ss_n| >= 3 and degree d_n >= 3 escapes ESP pruning if no
  tree with the same edges is already rooted at ``n`` (Algorithm 4);
* ``multi_queue`` — §4.9: one priority queue per seed-set signature, Grow
  pops from the queue holding the fewest pending candidates
  (large-seed-set robustness).

``N`` seed sets (all graph nodes, §4.9(i)) are passed as the
:data:`ALL_NODES` sentinel: no INIT trees are created for them, any node
matches them, and every tree satisfying all concrete sets is a result.

Exploration order: smallest tree first, ties in FIFO order (the paper's
§5.4 setting). The paper's completeness claims hold under any order, and
the tests check them under seeded arbitrary orders by overriding
:meth:`RootedSearch._push_grows` alone (``tests/helpers.RandomOrder``).

Grow queue: a Grow candidate is a (tree, edge) pair, and a heap entry
holds a tree and an iterator over its candidates. A tree takes one
entry, whose iterator is made when the entry first pops and applies
Grow1 and Grow2 to the root's cached adjacency as it is drawn, in
adjacency order: a LIMIT search that stops early makes no iterator for a
tree it does not grow. Only the multi-queue rule lists the candidates up
front, as it counts those pending. No tree is queued twice: GAM's
``rooted_hist`` admits each (edges, root) pair once, ESP's ``hist`` each
edge set once, and a LESP exemption needs the edges to be new at their
root.

Merge: a new tree is merged with the trees registered at its root, which
one per-root record holds with their edge sets and their distinct
``sat`` values. :meth:`RootedSearch._merge_peers` picks the peers a walk
visits: none when every ``sat`` registered at the root overlaps the seed
sets the new tree holds outside the root, since Merge2 then rejects every
peer, as at a hub that is not a seed. The skipped pairs still count in
``merges_tried``, which therefore counts pairs Merge considered, whether
walked or rejected in bulk. The reference walk of
``tests/test_merge_skip.py`` overrides that method alone.

Seed bindings: Grow2 and Merge2 bind each concrete set at one node of a
tree, so trees keep only ``sat`` and a result's pairs are formed on report.

The search makes no reference cycles: trees, queue entries and their
iterators refer to nothing that refers back to them, and an iterator
captures the tree's fields, not the search. Everything it builds is
therefore freed by reference counting, which is why the entry points of
:mod:`.api` pause the cyclic garbage collector for a search's lifetime
(``tests/test_gc_pause.py`` checks that nothing is left for it).

:class:`CTPSearch` holds what every §4 algorithm shares, the BFT
baselines of :mod:`.bft` included: the seed bitmask, the budget, result
reporting and the outcome.
"""
from __future__ import annotations

import heapq
import time
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import islice

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


@dataclass
class SearchStats:
    built: int = 0          # provenances constructed (incl. subsequently pruned)
    kept: int = 0           # provenances that survived isNew
    pruned: int = 0
    grows: int = 0          # Grow pops executed
    merges_tried: int = 0   # pairs Merge considered, a skipped walk's included
    merges_done: int = 0
    results_found: int = 0
    elapsed_s: float = 0.0


@dataclass
class SearchOutcome:
    results: list[ResultTree]
    stats: SearchStats
    stop: str   # "exhausted", "limit", "timeout" or "budget" (max_built)

    # perfbench reads these three; ROADMAP item 2 removes them once it
    # reads ``stop``. ``timed_out`` means "timeout or budget".
    @property
    def exhausted(self) -> bool:
        return self.stop == "exhausted"

    @property
    def limit_hit(self) -> bool:
        return self.stop == "limit"

    @property
    def timed_out(self) -> bool:
        return self.stop in ("timeout", "budget")


class _Stop(Exception):
    """Ends a search early; ``reason`` is "timeout", "budget" or "limit"."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


class CTPSearch:
    """One CTP evaluation ``g(S_1..S_m, F)`` on an in-memory graph: what
    every §4 algorithm shares. The filters are pushed into the search the
    same way for each (§4.8): the budget is checked by :meth:`_check_budget`,
    results go through :meth:`_report` (dedup, SCORE, LIMIT), and
    :meth:`run` orders them and applies TOP k. A subclass implements
    :meth:`_search`: INIT and its main loop."""

    def __init__(
        self, graph: LocalGraph, seed_sets: list, filters: CTPFilters
    ) -> None:
        if not seed_sets:
            raise ValueError("CTP needs at least one seed set")
        self.g = graph
        self.f = filters
        self.seed_sets = seed_sets
        self.concrete: list[int] = [
            i for i, s in enumerate(seed_sets) if not is_all_nodes(s)
        ]
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
        # The (seed set, node) pairs of each seed node, built once and
        # shared by every result that binds the node.
        self.node_pairs: dict[int, tuple[tuple[int, int], ...]] = {
            n: tuple((i, n) for i in self.concrete if bits >> i & 1)
            for n, bits in self.node_sets.items()
        }
        self.results: dict = {}
        self.stats = SearchStats()
        self._deadline: float | None = None

    def _bindings(self, nodes: frozenset[int]) -> frozenset[tuple[int, int]]:
        """The seed bindings of a tree with ``nodes``: the pairs of its seed
        nodes. Grow2 and Merge2 bind each concrete set at one node only."""
        pairs = self.node_pairs
        return frozenset(p for n in nodes if n in pairs for p in pairs[n])

    def _check_budget(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise _Stop("timeout")
        if self.f.max_built is not None and self.stats.built >= self.f.max_built:
            raise _Stop("budget")

    def _report(self, rt: ResultTree) -> None:
        key = rt.key()
        if key in self.results:
            return
        if self.f.score is not None:
            rt = replace(rt, score=self.f.score(rt, self.g))
        self.results[key] = rt
        self.stats.results_found += 1
        if self.f.limit is not None and len(self.results) >= self.f.limit:
            raise _Stop("limit")

    def _search(self) -> None:
        """INIT and the main loop; returns when the queue is exhausted."""
        raise NotImplementedError

    def run(self) -> SearchOutcome:
        t0 = time.monotonic()
        if self.f.timeout_s is not None:
            self._deadline = t0 + self.f.timeout_s
        try:
            # _report tests LIMIT after an add, and TOP 0 keeps no tree.
            if self.f.limit == 0 or self.f.top_k == 0:
                raise _Stop("limit")
            self._search()
            stop = "exhausted"
        except _Stop as s:
            stop = s.reason
        self.stats.elapsed_s = time.monotonic() - t0
        results = sorted(
            self.results.values(), key=lambda r: (r.size, sorted(r.edges))
        )
        if self.f.top_k is not None:
            results = sorted(
                results, key=lambda r: (-r.score, r.size, sorted(r.edges))
            )[: self.f.top_k]
        return SearchOutcome(results, self.stats, stop)


class RootedSearch(CTPSearch):
    """GAM and the ESP family: Algorithms 1-5 under one :class:`SearchConfig`."""

    def __init__(
        self,
        graph: LocalGraph,
        seed_sets: list,
        config: SearchConfig = SearchConfig(),
        filters: CTPFilters = CTPFilters(),
    ) -> None:
        super().__init__(graph, seed_sets, filters)
        self.cfg = config
        self.has_n_sets = len(self.concrete) < len(seed_sets)
        # State shared by Algorithms 1-5.
        self.hist: set[frozenset[int]] = set()              # ESP history
        self.rooted_hist: set[tuple[frozenset[int], int]] = set()  # GAM history
        # root -> (trees rooted there, their edge sets, their sats)
        self.rooted: dict[int, tuple[list[RTree], set[frozenset[int]], set[int]]] = {}
        self.ss: dict[int, int] = {}                         # seed signatures
        self.queues: dict[int, list] = {}                    # sat -> heap
        self.pending: dict[int, int] = {}     # multi-queue: sat -> candidates left
        self.adj_cache: dict[int, tuple[Adj, ...]] = {}      # see _grow_adj
        self._seq = 0

    # ---- small helpers ---------------------------------------------------
    def _grow_adj(self, n: int) -> tuple[Adj, ...]:
        """Edges Grow may traverse from a tree rooted at ``n``. LABEL and
        UNI depend on the node only, so each adjacency is filtered once.
        UNI only traverses edges pointing from the new root at ``a.other``
        *into* the tree, so results are root-directed; the graph keeps
        that filtered adjacency across searches (``in_adj_of``)."""
        adj = self.adj_cache.get(n)
        if adj is None:
            adj = self.g.in_adj_of(n) if self.f.uni else self.g.adj_of(n)
            labels = self.f.labels
            if labels is not None:
                adj = tuple(a for a in adj if a.label in labels)
            self.adj_cache[n] = adj
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
            rec = self.rooted.get(t.root)
            if (
                bin(self.ss.get(t.root, 0)).count("1") >= 3
                and self.g.degree.get(t.root, 0) >= 3
                and (rec is None or t.edges not in rec[1])
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
            self._report(ResultTree(t.edges, t.nodes, self._bindings(t.nodes)))
            # With only concrete seed sets a result cannot extend into
            # another result (Grow2 blocks every remaining seed), so the
            # search drops it. With N sets every supertree is a further
            # result (§4.9), so expansion continues.
            if not self.has_n_sets:
                return True
        self._add_rooted(t)
        if not t.no_grow:
            self._push_grows(t)
        return False

    def _add_rooted(self, t: RTree) -> None:
        """Make ``t`` a Merge partner of the later trees rooted at its root."""
        rec = self.rooted.get(t.root)
        if rec is None:
            self.rooted[t.root] = ([t], {t.edges}, {t.sat})
        else:
            rec[0].append(t)
            rec[1].add(t.edges)
            rec[2].add(t.sat)

    def _mo_copies(self, t: RTree, gained: bool) -> list[RTree]:
        """Build and register the Mo copies of ``t`` (§4.5) for the Merge work
        list. They bypass the edge-set history (their edges are already in
        it) and only deduplicate against the trees rooted at their node."""
        # §4.8 enforces UNI on provenance creation, so a copy must stay
        # root-directed. A UNI tree is root-directed from its own root (Grow
        # adds an edge from the new root, Merge joins two such trees there)
        # and from no other node, so a copy at another seed never qualifies.
        if not self.cfg.mo or not gained or self.f.uni:
            return []
        out = []
        node_sets, rooted, stats = self.node_sets, self.rooted, self.stats
        # In node order, so the Merge work list, and with it the counters,
        # depends on the tree alone and not on how the ids hash.
        for n in sorted(v for v in t.nodes if v in node_sets):
            if n == t.root:
                continue
            rec = rooted.get(n)
            if rec is not None and t.edges in rec[1]:
                continue
            mc = RTree(t.edges, t.nodes, n, t.sat, False, True)
            stats.built += 1
            stats.kept += 1
            self._add_rooted(mc)
            out.append(mc)
        return out

    # ---- Grow ------------------------------------------------------------
    def _push_grows(self, t: RTree) -> None:
        """Queue the Grow candidates of ``t``.

        An entry is ``[prio, seq, tree, candidates]``: the priority is the
        new tree's size, and the unique ``seq`` breaks ties in FIFO order
        and keeps heap comparisons away from the tree. The candidates are
        an iterator in adjacency order, None until :meth:`_pop` first
        reaches the entry: a tree's candidates would get consecutive keys,
        so they pop as one block either way, and a tree with none pops
        once and is dropped. The multi-queue rule lists them here, to
        count them.
        """
        if self.f.max_edges is not None and t.size >= self.f.max_edges:
            return  # MAX
        qkey, cands = 0, None
        if self.cfg.multi_queue:
            cands = list(self._candidates(t))
            if not cands:
                return
            qkey = t.sat
            self.pending[qkey] = self.pending.get(qkey, 0) + len(cands)
            cands = iter(cands)
        self._seq += 1
        heapq.heappush(self.queues.setdefault(qkey, []),
                       [t.size + 1, self._seq, t, cands])

    def _candidates(self, t: RTree) -> Iterator[Adj]:
        """The Grow candidates of ``t``, filtered by Grow1 and Grow2 as drawn."""
        nodes, sat, node_sets = t.nodes, t.sat, self.node_sets
        return (
            a for a in self._grow_adj(t.root)
            if a.other not in nodes                   # Grow1
            and not node_sets.get(a.other, 0) & sat   # Grow2
        )

    def _pop(self) -> tuple[RTree, Adj] | None:
        """The next Grow candidate, or None when the queues are empty."""
        if self.cfg.multi_queue:
            # §4.9: serve the queue with the fewest pending candidates.
            live = [k for k, n in self.pending.items() if n]
            if not live:
                return None
            qkey = min(live, key=self.pending.__getitem__)
            self.pending[qkey] -= 1
        else:
            qkey = 0
        heap = self.queues.get(qkey, [])
        while heap:
            entry = heap[0]
            t, cands = entry[2:]
            if cands is None:
                cands = entry[3] = self._candidates(t)
            # The entry's key is unchanged while it is consumed: the heap
            # stays valid. An exhausted entry is dropped on the next pop.
            for a in cands:
                if self.cfg.multi_queue and not self.pending[qkey]:
                    heap.clear()  # that was the queue's last candidate
                return t, a
            heapq.heappop(heap)
        return None

    def _grow(self, t: RTree, a: Adj) -> RTree:
        other_bits = self.node_sets.get(a.other, 0)
        return RTree(
            t.edges | {a.eid},
            t.nodes | {a.other},
            a.other,
            t.sat | other_bits,
            t.is_seed_path and other_bits == 0,
            False,
        )

    # ---- integrate a Grow/INIT result: MergeAll + Mo injection ----------
    def _merge_peers(self, rec: tuple, blocked: int) -> Sequence[RTree]:
        """The trees of the per-root record ``rec`` that a Merge walk visits:
        all of them, or none when every ``sat`` registered there overlaps
        ``blocked``, as at a hub that is not a seed: Merge2 then rejects
        every peer."""
        for s in rec[2]:
            if not blocked & s:
                return rec[0]
        return ()

    def _integrate(self, t: RTree, gained: bool) -> None:
        stats = self.stats
        stats.built += 1
        self._check_budget()
        if not self._is_new(t):
            stats.pruned += 1
            return
        if self._register(t):
            return
        # The budget is checked before a Merge attempt only when a tree was
        # built since the last check: the same stop as a check before
        # every attempt, as ``built`` is the only count it reads.
        checked = stats.built
        work = deque([t, *self._mo_copies(t, gained)])
        node_sets, rooted, max_edges = self.node_sets, self.rooted, self.f.max_edges
        tried = 0
        try:
            while work:
                cur = work.popleft()
                root = cur.root
                rec = rooted[root]
                if len(rec[0]) == 1:
                    continue  # cur alone: a walk would try nothing
                # Merge2, read per DESIGN.md §6: sat overlap only through
                # the shared root (required by the §4.5 MoESP walk-through).
                # Tested first: it is a mask test and rejects most attempts.
                blocked = cur.sat & ~node_sets.get(root, 0)
                peers = self._merge_peers(rec, blocked)
                if not peers:
                    # A skipped walk's pairs (rec[0] holds cur itself) still
                    # count as tried, and the budget check the first peer
                    # would run still runs: the stop lands where a walk
                    # would put it.
                    if stats.built != checked:
                        self._check_budget()
                        checked = stats.built
                    tried += len(rec[0]) - 1
                    continue
                # Merge1: the trees share only the root, which both hold.
                others = cur.nodes - {root}
                # Trees registered during the walk are not merged with cur
                # here: they meet it from their own turn in the work list.
                for p in islice(peers, len(peers)):
                    if p is cur:
                        continue
                    if stats.built != checked:
                        self._check_budget()
                        checked = stats.built
                    tried += 1
                    if (blocked & p.sat or not others.isdisjoint(p.nodes)
                            or max_edges is not None
                            and cur.size + p.size > max_edges):
                        continue
                    stats.merges_done += 1
                    stats.built += 1
                    merged = RTree(
                        cur.edges | p.edges,
                        cur.nodes | p.nodes,
                        root,
                        cur.sat | p.sat,
                        False,
                        cur.no_grow or p.no_grow,
                    )
                    if not self._is_new(merged):
                        stats.pruned += 1
                    elif not self._register(merged):
                        work.append(merged)
                        work.extend(self._mo_copies(merged, True))
        finally:
            stats.merges_tried += tried

    # ---- Algorithm 1 main loop ------------------------------------------
    def _search(self) -> None:
        inited: set[int] = set()
        for i in self.concrete:
            for n in sorted(set(self.seed_sets[i])):
                if n in inited:
                    continue
                inited.add(n)
                bits = self.node_sets[n]
                t = RTree(frozenset(), frozenset((n,)), n, bits, True, False)
                self.ss[n] = self.ss.get(n, 0) | bits
                self._integrate(t, gained=False)
        while (cand := self._pop()) is not None:
            self._check_budget()
            t, a = cand
            self.stats.grows += 1
            t2 = self._grow(t, a)
            if t2.is_seed_path:
                self.ss[t2.root] = self.ss.get(t2.root, 0) | t2.sat
            self._integrate(t2, gained=self.node_sets.get(a.other, 0) != 0)
