"""Pins the Grow pop order of the rooted engine.

ESP-family pruning and LIMIT make the counters and the results depend on
the order in which Grow candidates leave the queue, so a change to that
order shows here as a moved counter. The pinned values were recorded on
the reference implementation (one heap entry per tree and edge); a pure
speed change to the queue must reproduce them exactly.

Each case is (built, kept, pruned, grows, merges_tried, merges_done,
sorted result edge sets), one tuple per query. The exhaustive cases pin
a digest of the sorted result edge sets instead, with their count. The
binding pins hold, per case, the result count and a digest of each
result's sorted edges with its sorted (seed set, node) bindings; they
were recorded on the engine whose trees each carried their bindings.
"""
import hashlib
import random

import pytest

from repro.core import esp, molesp, moesp
from repro.core.filters import CTPFilters
from repro.graph import generators as gen
from repro.graph.model import Edge, LocalGraph
from repro.graph.random_graphs import dbpedia_lite, random_graph, sample_ctp_workload

from tests.helpers import in_order


def fingerprint(out):
    s = out.stats
    return (s.built, s.kept, s.pruned, s.grows, s.merges_tried, s.merges_done,
            sorted(sorted(r.edges) for r in out.results))


def _hub(m):
    """Fig 12 shape: UNI + LIMIT 1 around the hubs of a scale-free graph."""
    g = dbpedia_lite(scale=0.05, seed=7)
    queries = sample_ctp_workload(g, m=m, n_queries=3, seed=m,
                                  mode="directed", max_hops=1)
    return [molesp(g, ss, filters=CTPFilters(uni=True, limit=1))
            for ss in queries]


def _skewed_multi_queue():
    """The skewed seed sets of test_bigseed under §4.9 multi-queue."""
    g = random_graph(15, 25, seed=9)
    nodes = sorted(g.nodes)
    return [molesp(g, [nodes[:10], [nodes[12]]], multi_queue=True)]


def _three_seeds(seed):
    g = random_graph(10, 16, seed=seed)
    n = sorted(g.nodes)
    return g, [[n[0]], [n[5]], [n[9]]]


def _multi_queue_limit():
    """§4.9 multi-queue under LIMIT: the queue picked on each pop (fewest
    pending Grow candidates) decides which results are found first."""
    g, ss = _three_seeds(4)
    n = sorted(g.nodes)
    return [molesp(g, [n[:4]] + ss[1:], multi_queue=True,
                   filters=CTPFilters(limit=2))]


def _max():
    g, ss = _three_seeds(4)
    return [molesp(g, ss, filters=CTPFilters(max_edges=4))]


def _label():
    g, ss = _three_seeds(6)
    return [moesp(g, ss, filters=CTPFilters(labels=frozenset({"l0", "l1"})))]


def _random_priority():
    g, ss = _three_seeds(6)
    return [in_order(esp, g, ss, 0, filters=CTPFilters(limit=3))]


PINNED = {
    "hub_m4": (lambda: _hub(4), [
        (640, 483, 157, 269, 6022, 367, [[1149, 1397, 1519, 2078]]),
        (112, 108, 4, 74, 154, 34, [[31, 55, 207, 1377]]),
        (37, 35, 2, 20, 31, 13, [[91, 321, 2013, 2358]]),
    ]),
    "hub_m6": (lambda: _hub(6), [
        (416, 317, 99, 199, 1794, 211, [[252, 562, 1050, 1652, 1854, 2373]]),
        (5095, 1490, 3605, 292, 237878, 4797,
         [[606, 822, 1544, 1915, 2194, 2421]]),
        (148, 84, 64, 20, 628, 122, [[107, 187, 378, 507, 526, 984]]),
    ]),
    "skewed_multi_queue": (_skewed_multi_queue, [
        (45, 36, 9, 31, 36, 3,
         [[5], [8, 14], [9, 14], [11], [13], [14, 15]]),
    ]),
    "multi_queue_limit": (_multi_queue_limit, [
        (21, 17, 4, 8, 6, 5, [[1, 3, 5, 11, 12, 15], [3, 10]]),
    ]),
    "max": (_max, [
        (195, 142, 53, 120, 948, 52,
         [[0, 1, 9, 14], [0, 3, 4, 15], [0, 3, 14], [0, 4, 10, 15],
          [0, 10, 14], [1, 9, 10], [3, 10]]),
    ]),
    "label": (_label, [
        (47, 34, 13, 27, 48, 12, [[3, 4, 12, 13, 15], [4, 9, 15]]),
    ]),
    "random_priority": (_random_priority, [
        (59, 50, 9, 46, 115, 10,
         [[1, 2, 4, 9, 12, 13], [1, 2, 5, 9, 11, 12, 15], [4, 9, 15]]),
    ]),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_search_order_pinned(case):
    run, expected = PINNED[case]
    assert [fingerprint(out) for out in run()] == expected


def _cdf_m3(filters):
    """Fig 14 shape, searched to exhaustion: MoLESP on a small m=3 CDF with
    the targets of the "c", "g" and "h" edges as the three seed sets."""
    g = gen.cdf(3, n_t=16, n_l=32, s_l=3, seed=17).graph
    ss = [sorted({e.dst for e in g.edges.values() if e.label == lab})
          for lab in "cgh"]
    return molesp(g, ss, filters=filters)


def exhaustive_fingerprint(out):
    s = out.stats
    trees = repr(sorted(sorted(r.edges) for r in out.results))
    return (s.built, s.kept, s.pruned, s.grows, s.merges_tried, s.merges_done,
            len(out.results), hashlib.sha256(trees.encode()).hexdigest()[:16])


PINNED_EXHAUSTIVE = {
    "cdf_m3_uni": (CTPFilters(uni=True),
                   (890, 826, 64, 576, 1536, 186, 58, "3bc7ece1de424391")),
    "cdf_m3_bidirectional": (CTPFilters(),
                             (2326, 1526, 800, 960, 2796, 918, 310,
                              "0f3f314eac2d2c3a")),
}


@pytest.mark.parametrize("case", sorted(PINNED_EXHAUSTIVE))
def test_exhaustive_search_pinned(case):
    filters, expected = PINNED_EXHAUSTIVE[case]
    out = _cdf_m3(filters)
    assert out.stop == "exhausted"
    assert exhaustive_fingerprint(out) == expected


def bindings_digest(outs):
    """The result count and a digest of the sorted (edges, bindings) pairs
    of every result, over one or more searches."""
    pairs = repr([sorted((sorted(r.edges), sorted(r.seeds)) for r in out.results)
                  for out in outs])
    return (sum(len(out.results) for out in outs),
            hashlib.sha256(pairs.encode()).hexdigest()[:16])


PINNED_BINDINGS = {
    "cdf_m3_uni": (lambda: [_cdf_m3(CTPFilters(uni=True))],
                   (58, "899506d933f27854")),
    "cdf_m3_bidirectional": (lambda: [_cdf_m3(CTPFilters())],
                             (310, "1faafe4bbb6deaf9")),
    "hub_m4": (lambda: _hub(4), (3, "c8902d612d6a84a8")),
    "hub_m6": (lambda: _hub(6), (3, "50ba3face0a27d77")),
}


@pytest.mark.parametrize("case", sorted(PINNED_BINDINGS))
def test_result_bindings_pinned(case):
    """Each result's seed bindings, not only its edges: the (set, node)
    pairs the engine reports for the exhaustive CDF searches and the hub
    LIMIT 1 searches."""
    run, expected = PINNED_BINDINGS[case]
    assert bindings_digest(run()) == expected


def _renamed(bundle, seed):
    """``bundle`` with its node ids mapped, in order, onto random ids in
    [0, 2^40): the same graph, with node ids that hash differently."""
    g = bundle.graph
    nodes = sorted(g.nodes)
    ids = dict(zip(nodes, sorted(random.Random(seed).sample(range(1 << 40),
                                                              len(nodes)))))
    edges = [Edge(e.id, ids[e.src], e.label, ids[e.dst]) for e in g.edges.values()]
    renamed = LocalGraph(edges, {ids[n]: lbl for n, lbl in g.node_labels.items()})
    return renamed, [[ids[n] for n in s] for s in bundle.seed_sets], ids


@pytest.mark.parametrize("search", [moesp, molesp], ids=["MoESP", "MoLESP"])
@pytest.mark.parametrize("n_a", [5, 6])
def test_counters_do_not_depend_on_node_ids(n_a, search):
    """Mo copies (§4.5) are made in node order, so an order-preserving
    rename of the node ids moves no counter, ``stop`` or result."""
    bundle = gen.comb(n_a, 1, 2, 2)
    base = search(bundle.graph, bundle.seed_sets)
    for seed in (1, 2, 91):
        g, seed_sets, ids = _renamed(bundle, seed)
        out = search(g, seed_sets)
        assert out.stop == base.stop
        for name, value in base.stats.__dict__.items():
            if name != "elapsed_s":
                assert getattr(out.stats, name) == value, (seed, name)
        assert [r.key() for r in out.results] == [
            (r.edges, frozenset((i, ids[n]) for i, n in r.seeds))
            for r in base.results]
