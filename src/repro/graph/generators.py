"""Deterministic synthetic graphs from the paper's evaluation (§5.3) and
its running/counter-example figures.

All generators return a :class:`~repro.graph.model.GraphBundle` whose
``seed_sets`` are the singleton seed sets the paper runs its CTPs with
(seeds are labeled ``A``, ``B``, … in generation order; intermediary nodes
get numeric labels).
"""
from __future__ import annotations

import string

import numpy as np

from .model import Edge, GraphBundle, LocalGraph


def _seed_label(i: int) -> str:
    """A, B, …, Z, A1, B1, … — seed labels in generation order."""
    letters = string.ascii_uppercase
    suffix = i // 26
    return letters[i % 26] + (str(suffix) if suffix else "")


class _Builder:
    """Incremental node/edge builder with auto ids."""

    def __init__(self) -> None:
        self.edges: list[Edge] = []
        self.labels: dict[int, str] = {}
        self.types: dict[int, set[str]] = {}
        self._next = 0

    def node(self, label: str | None = None, types: tuple[str, ...] = ()) -> int:
        n = self._next
        self._next += 1
        self.labels[n] = label if label is not None else str(n)
        if types:
            self.types[n] = set(types)
        return n

    def edge(self, src: int, dst: int, label: str = "r") -> int:
        eid = len(self.edges)
        self.edges.append(Edge(eid, src, label, dst))
        return eid

    def path(self, a: int, b: int, n_edges: int, label: str = "r") -> list[int]:
        """A path of ``n_edges`` edges from ``a`` to ``b`` through fresh
        intermediary nodes; returns the edge ids. Edges directed a -> b."""
        if n_edges < 1:
            raise ValueError("path needs >= 1 edge")
        eids, cur = [], a
        for k in range(n_edges - 1):
            nxt = self.node()
            eids.append(self.edge(cur, nxt, label))
            cur = nxt
        eids.append(self.edge(cur, b, label))
        return eids

    def graph(self) -> LocalGraph:
        return LocalGraph(self.edges, self.labels, self.types)


# --------------------------------------------------------------------------
# §5.3 parameterized CTP benchmark graphs (Figure 8)
# --------------------------------------------------------------------------

def line(m: int, n_l: int) -> GraphBundle:
    """Line(m, nL): m seeds, consecutive seeds joined by nL intermediary
    nodes (sL = nL+1 edges). The single CTP result is the whole line (2ps)."""
    if m < 2:
        raise ValueError("line needs m >= 2")
    b = _Builder()
    seeds = [b.node(_seed_label(i)) for i in range(m)]
    for i in range(m - 1):
        b.path(seeds[i], seeds[i + 1], n_l + 1)
    return GraphBundle(b.graph(), [[s] for s in seeds])


def comb(n_a: int, n_s: int, s_l: int, d_ba: int) -> GraphBundle:
    """Comb(nA, nS, sL, dBA): a main line of nA anchor seeds (dBA
    intermediary nodes between successive anchors); from each anchor exits a
    bristle of nS segments of sL edges, each segment ending in a seed.
    m = nA * (nS + 1)."""
    if n_a < 2:
        raise ValueError("comb needs nA >= 2")
    b = _Builder()
    seeds: list[int] = []
    anchors: list[int] = []
    k = 0
    for i in range(n_a):
        a = b.node(_seed_label(k))
        k += 1
        anchors.append(a)
        seeds.append(a)
        if i > 0:
            b.path(anchors[i - 1], a, d_ba + 1)
        cur = a
        for _ in range(n_s):
            s = b.node(_seed_label(k))
            k += 1
            b.path(cur, s, s_l)
            seeds.append(s)
            cur = s
    return GraphBundle(b.graph(), [[s] for s in seeds])


def star(m: int, s_l: int) -> GraphBundle:
    """Star(m, sL): a central (non-seed) node joined to each of the m seeds
    by a line of sL edges. The single result is an (m, center)-rooted merge."""
    if m < 2:
        raise ValueError("star needs m >= 2")
    b = _Builder()
    center = b.node("center")
    seeds = []
    for i in range(m):
        s = b.node(_seed_label(i))
        b.path(center, s, s_l)
        seeds.append(s)
    return GraphBundle(b.graph(), [[s] for s in seeds])


def chain(n: int) -> GraphBundle:
    """Figure 2's chain graph: n+1 nodes, each consecutive pair joined by
    two parallel edges; the 2-seed CTP between the ends has 2^n results."""
    b = _Builder()
    nodes = [b.node("A" if i == 0 else ("B" if i == n else str(i))) for i in range(n + 1)]
    for i in range(n):
        b.edge(nodes[i], nodes[i + 1], "up")
        b.edge(nodes[i], nodes[i + 1], "down")
    return GraphBundle(b.graph(), [[nodes[0]], [nodes[n]]])


# --------------------------------------------------------------------------
# Counter-example / walkthrough graphs (Figures 3-7)
# --------------------------------------------------------------------------

def fig3() -> GraphBundle:
    """Figure 3 (ESP incompleteness): the path A - 1 - 2 - B - 3 - C with
    seeds {A}, {B}, {C}; the only result is the whole path."""
    b = _Builder()
    A, n1, n2, B, n3, C = (b.node(x) for x in ("A", "1", "2", "B", "3", "C"))
    b.edge(A, n1)
    b.edge(n1, n2)
    b.edge(n2, B)
    b.edge(B, n3)
    b.edge(n3, C)
    return GraphBundle(b.graph(), [[A], [B], [C]])


def fig4() -> GraphBundle:
    """Figure 4 (MoESP discussion): 6 seeds; the result's simple tree
    decomposition is {A-4-D, A-1-2-B, B-7-E, B-8-F, B-3-C} (all 2-simple)."""
    b = _Builder()
    A, B, C, D, E, F = (b.node(x) for x in "ABCDEF")
    n1, n2, n3, n4, n7, n8 = (b.node(x) for x in ("1", "2", "3", "4", "7", "8"))
    b.edge(A, n1), b.edge(n1, n2), b.edge(n2, B)       # A-1-2-B
    b.edge(A, n4), b.edge(n4, D)                       # A-4-D
    b.edge(B, n7), b.edge(n7, E)                       # B-7-E
    b.edge(B, n8), b.edge(n8, F)                       # B-8-F
    b.edge(B, n3), b.edge(n3, C)                       # B-3-C
    return GraphBundle(b.graph(), [[s] for s in (A, B, C, D, E, F)])


def fig5() -> GraphBundle:
    """Figure 5 (MoESP incompleteness): center x joined by 2-edge rays to
    A, B, C (via nodes 1, 2, 3). The only result is 3-simple."""
    b = _Builder()
    A, B, C, x = (b.node(s) for s in ("A", "B", "C", "x"))
    n1, n2, n3 = (b.node(s) for s in ("1", "2", "3"))
    b.edge(A, n1), b.edge(n1, x)
    b.edge(B, n2), b.edge(n2, x)
    b.edge(C, n3), b.edge(n3, x)
    return GraphBundle(b.graph(), [[A], [B], [C]])


def fig6() -> GraphBundle:
    """Figure 6 (LESP incompleteness, 4 seed sets): A-1-2-B and C-3-4-D
    lines bridged by 2 - x - 3."""
    b = _Builder()
    A, B, C, D, x = (b.node(s) for s in ("A", "B", "C", "D", "x"))
    n1, n2, n3, n4 = (b.node(s) for s in ("1", "2", "3", "4"))
    b.edge(A, n1), b.edge(n1, n2), b.edge(n2, B)
    b.edge(C, n3), b.edge(n3, n4), b.edge(n4, D)
    b.edge(n2, x), b.edge(x, n3)
    return GraphBundle(b.graph(), [[A], [B], [C], [D]])


def fig7() -> GraphBundle:
    """A Property-9 example in the spirit of Figure 7: two (u,n)-rooted
    merges chained through a shared seed C. Center c1 reaches seeds A, B, C;
    center c2 reaches seeds C, D, E, F. Every edge set of the (unique)
    result's simple decomposition is a rooted merge, so MoLESP must find it
    even with 6 seed sets."""
    b = _Builder()
    A, B, C, D, E, F = (b.node(s) for s in "ABCDEF")
    c1, c2 = b.node("c1"), b.node("c2")
    for s in (A, B, C):
        b.path(c1, s, 2)
    for s in (C, D, E, F):
        b.path(c2, s, 2)
    return GraphBundle(b.graph(), [[s] for s in (A, B, C, D, E, F)])


# --------------------------------------------------------------------------
# Figure 1 running-example graph (reconstruction)
# --------------------------------------------------------------------------

def figure1() -> GraphBundle:
    """A reconstruction of the paper's Figure 1 sample graph, consistent
    with every statement made about it in the text:

    * Q1's seed sets: US entrepreneurs {n2, n4}, French entrepreneurs
      {n3, n6}, French politicians {n9};
    * result t_alpha = {e10, e9, e11}: n4 -e10-> n7 <-e9- n6 <-e11- n9;
    * result t_beta = {e1, e2, e17, e16}, feasible only bidirectionally;
    * the §4.1 BFT trace: from n2 BFT may build {e5, e4} then {e5, e4, e6}
      and minimization removes e4;
    * n3 is labeled "Alice" with type entrepreneur (the §2 predicate).

    Node ids are 1-based to match the paper's n1..n11; edge ids match e1..e17
    where the text pins them and fill the gaps otherwise.
    """
    labels = {
        1: "OrgB", 2: "Bob", 3: "Alice", 4: "Carl", 5: "acct1", 6: "Dana",
        7: "OrgC", 8: "France", 9: "Eve", 10: "USA", 11: '"info@x.org"',
    }
    types = {
        1: {"organization"}, 7: {"organization"},
        2: {"entrepreneur"}, 3: {"entrepreneur"}, 4: {"entrepreneur"},
        6: {"entrepreneur"}, 9: {"politician"},
        8: {"country"}, 10: {"country"},
    }
    E = Edge
    edges = [
        E(1, 2, "founded", 1),        # n2 founded OrgB
        E(2, 3, "founded", 1),        # n3 founded OrgB
        E(3, 3, "citizenOf", 8),      # Alice citizenOf France
        E(4, 2, "hasAccount", 5),     # n2 hasAccount acct1
        E(5, 2, "citizenOf", 10),     # n2 citizenOf USA
        E(6, 4, "citizenOf", 10),     # n4 citizenOf USA
        E(7, 6, "citizenOf", 8),      # n6 citizenOf France
        E(8, 9, "citizenOf", 8),      # n9 citizenOf France
        E(9, 6, "memberOf", 7),       # n6 memberOf OrgC
        E(10, 4, "memberOf", 7),      # n4 memberOf OrgC
        E(11, 9, "knows", 6),         # n9 knows n6
        E(12, 7, "basedIn", 10),      # OrgC basedIn USA
        E(13, 5, "locatedIn", 8),     # acct1 locatedIn France
        E(14, 6, "knows", 3),         # n6 knows Alice
        E(15, 4, "founded", 7),       # n4 founded OrgC
        E(16, 9, "contact", 11),      # n9 contact literal
        E(17, 3, "contact", 11),      # Alice contact literal
    ]
    g = LocalGraph(edges, labels, types)
    return GraphBundle(g, [[2, 4], [3, 6], [9]])


# --------------------------------------------------------------------------
# CDF graphs (Figure 9) for the extended-query benchmark (§5.5.1)
# --------------------------------------------------------------------------

def cdf(m: int, n_t: int, n_l: int, s_l: int, seed: int = 0) -> GraphBundle:
    """Connected Dense Forest: a top and a bottom forest of ``n_t`` complete
    binary trees (6 edges / 4 leaves each, so 12*n_t forest edges total),
    plus ``n_l`` links of ``s_l`` edges each.

    m=2: each link is a directed path (label "L") from an eligible top leaf
    down to an eligible bottom leaf. m=3: each link is a Y from a top leaf
    to the "g" and "h" children of one bottom parent (requires s_l >= 3).

    Top-tree leaf edges carry label "c"; bottom-tree leaf edges carry "g"
    (and "h" for the second child when m=3). Only 50% of the top leaves
    (and 50% of the bottom leaves / leaf-pairs) are link-eligible; links
    are distributed uniformly (rng ``seed``) over eligible endpoints.

    Each link draws its two ends with replacement, so two links can share
    both ends: ``cdf(m, n_t=128, n_l=256, s_l=3, seed=17)`` has 256 links
    but 255 distinct end tuples, for m=2 and m=3 alike. Counts derived
    from the links then differ from ``n_l``: a reachability check finds
    one pair per distinct tuple, and under m=3 the ``k`` Ys that share
    their three ends give ``k * k`` UNI trees rooted at their top leaf
    (each bottom branch may come from any of them).

    Returns the bundle with ``seed_sets`` empty (the EQL query derives seed
    sets from its BGPs); link endpoints are recorded on the bundle as
    ``links`` for tests.
    """
    if m not in (2, 3):
        raise ValueError("cdf supports m in {2, 3}")
    if m == 3 and s_l < 3:
        raise ValueError("m=3 links need s_l >= 3")
    rng = np.random.default_rng(seed)
    b = _Builder()

    def forest(leaf_labels: tuple[str, ...], top: bool) -> list[list[int]]:
        """n_t binary trees; returns per-tree leaf lists. ``leaf_labels``
        gives the edge label(s) used for leaf edges (cycled per child)."""
        leaves_per_tree = []
        for _ in range(n_t):
            root = b.node()
            leaves = []
            for mid_i in range(2):
                mid = b.node()
                b.edge(root, mid, "a" if top else "e")
                for leaf_i in range(2):
                    leaf = b.node()
                    b.edge(mid, leaf, leaf_labels[leaf_i % len(leaf_labels)])
                    leaves.append(leaf)
            leaves_per_tree.append(leaves)
        return leaves_per_tree

    top_leaves = [l for tree in forest(("c",), True) for l in tree]
    if m == 2:
        bottom_leaves = [l for tree in forest(("g",), False) for l in tree]
        # A bottom "parent pair" is unused for m=2.
        bottom_units: list[tuple[int, ...]] = [(l,) for l in bottom_leaves]
    else:
        pairs: list[tuple[int, int]] = []
        for tree in forest(("g", "h"), False):
            pairs.append((tree[0], tree[1]))   # children of first mid node
            pairs.append((tree[2], tree[3]))   # children of second mid node
        bottom_units = pairs

    # 50% eligibility on both sides, links uniform over eligible endpoints.
    elig_top = top_leaves[:: 2] or top_leaves
    elig_bottom = bottom_units[:: 2] or bottom_units
    links: list[tuple[int, ...]] = []
    for _ in range(n_l):
        tl = elig_top[int(rng.integers(len(elig_top)))]
        unit = elig_bottom[int(rng.integers(len(elig_bottom)))]
        if m == 2:
            (bl,) = unit
            b.path(tl, bl, s_l, "L")
            links.append((tl, bl))
        else:
            bl1, bl2 = unit
            # Y: stem of s_l-2 edges to a junction, then one edge to each
            # bottom leaf; total s_l edges as the paper specifies.
            junction = b.node()
            if s_l - 2 >= 1:
                b.path(tl, junction, s_l - 2, "L")
            b.edge(junction, bl1, "L")
            b.edge(junction, bl2, "L")
            links.append((tl, bl1, bl2))

    bundle = GraphBundle(b.graph(), [])
    bundle.links = links  # type: ignore[attr-defined]
    bundle.top_leaves = top_leaves  # type: ignore[attr-defined]
    bundle.bottom_units = bottom_units  # type: ignore[attr-defined]
    return bundle


def cdf_edge_count(n_t: int, n_l: int, s_l: int) -> int:
    """The paper's CDF edge-count formula: 12*N_T + N_L*S_L."""
    return 12 * n_t + n_l * s_l
