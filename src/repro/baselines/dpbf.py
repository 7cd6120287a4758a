"""DPBF-style Group Steiner search — the QGSTP [39] substitute.

QGSTP is a polynomial-time GSTP solver returning exactly *one* semantically
cohesive tree for a fixed cost function; it bootstraps from DPBF [16]
(dynamic programming over (node, seed-subset) states with a priority
queue). We implement that DP with unit edge costs: the first full-subset
state popped is a minimum-edge group Steiner tree. Same contract as
QGSTP in Figure 12's comparison: one result, fixed cost function,
polynomial in |G| for fixed m.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..core.tree import ResultTree
from ..graph.model import LocalGraph


@dataclass
class DPBFStats:
    pushed: int = 0
    popped: int = 0


def dpbf(
    g: LocalGraph,
    seed_sets: list[list[int]],
    *,
    uni: bool = False,
) -> tuple[ResultTree | None, DPBFStats]:
    """Returns (one min-edge connecting tree or None, search stats).

    ``uni`` restricts growth to reverse-edge traversal so the returned
    tree is root-directed (same convention as the §4 engines).
    """
    m = len(seed_sets)
    full = (1 << m) - 1
    node_sets: dict[int, int] = {}
    for i, nodes in enumerate(seed_sets):
        for n in nodes:
            node_sets[n] = node_sets.get(n, 0) | (1 << i)

    # Classic DPBF recurrence: T(v, X) = min over Grow (edge into v's
    # tree) and Merge (disjoint-mask trees at v); the first full-mask
    # state popped is optimal, and optimal states are genuine trees (the
    # DPBF correctness argument — suboptimal overlapping unions are never
    # popped first).
    best: dict[tuple[int, int], int] = {}
    trees: dict[tuple[int, int], frozenset[int]] = {}
    settled: set[tuple[int, int]] = set()
    by_node: dict[int, list[int]] = {}
    heap: list = []
    seq = 0
    stats = DPBFStats()

    def push(node: int, mask: int, cost: int, edges: frozenset[int]) -> None:
        nonlocal seq
        key = (node, mask)
        if key in best and best[key] <= cost:
            return
        best[key] = cost
        trees[key] = edges
        seq += 1
        heapq.heappush(heap, (cost, seq, node, mask))
        stats.pushed += 1

    for n, bits in node_sets.items():
        push(n, bits, 0, frozenset())

    while heap:
        cost, _, node, mask = heapq.heappop(heap)
        key = (node, mask)
        if key in settled or best.get(key, -1) != cost:
            continue
        settled.add(key)
        stats.popped += 1
        edges = trees[key]
        if mask == full:
            nodes: set[int] = {node}
            for e in edges:
                s, d = g.edge_endpoints(e)
                nodes.update((s, d))
            # Bind each seed set to one deterministic node of the tree.
            bound: dict[int, int] = {}
            for n in sorted(nodes):
                bits = node_sets.get(n, 0)
                for i in range(m):
                    if bits >> i & 1 and i not in bound:
                        bound[i] = n
            return (
                ResultTree(edges, frozenset(nodes), frozenset(bound.items())),
                stats,
            )
        # Grow: extend the root along an adjacent edge.
        for a in g.adj_of(node):
            if uni and a.outgoing:
                continue
            if a.eid in edges:
                continue
            # Note: the new root's own groups are NOT forced onto the mask;
            # classic DPBF covers them through 0-cost merges with the
            # root's INIT states (otherwise a star centered on a seed is
            # unreachable).
            push(a.other, mask, cost + 1, edges | {a.eid})
        # Merge with settled states at the same node, disjoint masks.
        for mask2 in by_node.get(node, ()):
            if mask & mask2:
                continue
            push(
                node, mask | mask2, cost + best[(node, mask2)],
                edges | trees[(node, mask2)],
            )
        by_node.setdefault(node, []).append(mask)
    return None, stats
