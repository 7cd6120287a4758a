"""Random graphs: uniform G(n, m) for property tests and heavy-tailed
scale-free graphs standing in for the paper's DBPedia / YAGO3 subsets
(dataset substitution documented in DESIGN.md §3)."""
from __future__ import annotations

import numpy as np

from .model import Edge, LocalGraph

_EDGE_VOCAB = (
    "livesIn", "worksAt", "locatedIn", "created", "knows",
    "citizenOf", "memberOf", "owns", "partOf", "linkedTo",
)
_TYPE_VOCAB = ("person", "organization", "place", "work")


def _backbone(rng: np.random.Generator, n_nodes: int, labels) -> list[Edge]:
    """A random spanning tree on ``range(n_nodes)``, edge ids from 0, so
    that the graph is connected: each node of a random permutation hangs
    from one drawn among those before it, with a drawn label."""
    perm = rng.permutation(n_nodes)
    edges = []
    for i in range(1, n_nodes):
        u = int(perm[int(rng.integers(i))])
        label = labels[int(rng.integers(len(labels)))]
        edges.append(Edge(i - 1, u, label, int(perm[i])))
    return edges


def random_graph(
    n_nodes: int,
    n_edges: int,
    *,
    n_labels: int = 3,
    seed: int = 0,
) -> LocalGraph:
    """Uniform-ish random multigraph without self-loops.

    A spanning backbone is laid down first, so the graph is connected (CTP
    tests need reachable seeds); it has ``max(n_edges, n_nodes - 1)``
    edges."""
    rng = np.random.default_rng(seed)
    labels = [f"l{i}" for i in range(n_labels)]
    edges = _backbone(rng, n_nodes, labels)
    eid = len(edges)
    while eid < n_edges:
        u, v = int(rng.integers(n_nodes)), int(rng.integers(n_nodes))
        if u == v:
            continue
        edges.append(Edge(eid, u, labels[int(rng.integers(n_labels))], v))
        eid += 1
    node_labels = {n: f"n{n}" for n in range(n_nodes)}
    return LocalGraph(edges, node_labels)


def scale_free(
    n_nodes: int,
    n_edges: int,
    *,
    alpha: float = 1.0,
    n_labels: int = 8,
    seed: int = 0,
    typed: bool = False,
) -> LocalGraph:
    """Heavy-tailed random graph: endpoints drawn zipf(alpha) over a fixed
    node ranking (hubs emerge like in DBPedia/YAGO), self-loops rejected,
    plus a spanning backbone for connectivity. Edge labels are the first
    ``n_labels`` (at most ten) of a fixed predicate vocabulary."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_nodes + 1, dtype=np.float64)
    w = ranks ** (-alpha)
    w /= w.sum()
    vocab = _EDGE_VOCAB[:n_labels]
    edges = _backbone(rng, n_nodes, vocab)
    eid = len(edges)
    # Vectorized bulk draw, then reject self-loops.
    while eid < n_edges:
        k = n_edges - eid
        us = rng.choice(n_nodes, size=k, p=w).tolist()
        vs = rng.choice(n_nodes, size=k, p=w).tolist()
        ls = rng.integers(len(vocab), size=k).tolist()
        for u, v, l in zip(us, vs, ls):
            if u == v:
                continue
            edges.append(Edge(eid, u, vocab[l], v))
            eid += 1
            if eid >= n_edges:
                break
    node_labels = {n: f"e{n}" for n in range(n_nodes)}
    node_types = None
    if typed:
        t_idx = rng.integers(len(_TYPE_VOCAB), size=n_nodes).tolist()
        node_types = {n: {_TYPE_VOCAB[t]} for n, t in enumerate(t_idx)}
    return LocalGraph(edges, node_labels, node_types)


def dbpedia_lite(*, scale: float = 1.0, seed: int = 7) -> LocalGraph:
    """Stand-in for the 18M-edge DBPedia subset of [39]: a scale-free graph
    at container scale (scale=1.0 -> 50k edges / 15k nodes)."""
    n_nodes = max(100, int(15_000 * scale))
    n_edges = max(200, int(50_000 * scale))
    return scale_free(n_nodes, n_edges, alpha=0.9, seed=seed)


def yago_lite(*, scale: float = 1.0, seed: int = 11) -> LocalGraph:
    """Stand-in for the 6M-triple YAGO3 subset of JEDI [2]: typed,
    heavy-tailed (scale=1.0 -> 40k edges / 12k nodes)."""
    n_nodes = max(100, int(12_000 * scale))
    n_edges = max(200, int(40_000 * scale))
    return scale_free(
        n_nodes, n_edges, alpha=0.8, seed=seed, typed=True,
        n_labels=len(_EDGE_VOCAB),
    )


def sample_ctp_workload(
    g: LocalGraph,
    *,
    m: int,
    n_queries: int,
    seed: int = 0,
    max_hops: int = 4,
    mode: str = "undirected",
) -> list[list[list[int]]]:
    """Generate CTP seed-set workloads on a real-ish graph (used by the
    Fig. 12 comparison).

    ``mode="undirected"``: each query picks m singleton seed sets within
    ``max_hops`` undirected hops of a random center (a bidirectional
    connecting tree exists nearby; a UNI one may not).

    ``mode="directed"``: seeds are endpoints of m outward directed walks
    from a random root, so a root-directed connecting tree — a rooted
    merge, i.e. a Property-9 result — is guaranteed to exist. This mirrors
    [39]'s keyword workload, which is answerable under QGSTP's
    unidirectional semantics ("each QGSTP returned result is such that
    Property 9 ensures MoLESP finds it", §5.4.3).
    """
    rng = np.random.default_rng(seed)
    nodes = sorted(g.nodes)
    queries: list[list[list[int]]] = []
    attempts = 0
    while len(queries) < n_queries and attempts < n_queries * 500:
        attempts += 1
        center = nodes[int(rng.integers(len(nodes)))]
        if mode == "directed":
            seeds: set[int] = set()
            for _ in range(m * 4):
                cur = center
                hops = int(rng.integers(1, max_hops + 1))
                for _ in range(hops):
                    outs = [a for a in g.adj_of(cur) if a.outgoing]
                    if not outs:
                        break
                    cur = outs[int(rng.integers(len(outs)))].other
                if cur != center:
                    seeds.add(cur)
                if len(seeds) == m:
                    break
            if len(seeds) == m:
                queries.append([[s] for s in sorted(seeds)])
            continue
        # Undirected BFS ball around the center.
        ball, frontier, depth = {center}, {center}, 0
        while frontier and depth < max_hops:
            nxt = set()
            for u in frontier:
                for a in g.adj_of(u):
                    if a.other not in ball:
                        ball.add(a.other)
                        nxt.add(a.other)
            frontier = nxt
            depth += 1
        candidates = sorted(ball - {center})
        if len(candidates) < m:
            continue
        picks = rng.choice(len(candidates), size=m, replace=False)
        queries.append([[candidates[int(i)]] for i in picks])
    return queries
