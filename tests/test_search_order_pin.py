"""Pins the Grow pop order of the rooted engine.

ESP-family pruning and LIMIT make the counters and the results depend on
the order in which Grow candidates leave the queue, so a change to that
order shows here as a moved counter. The pinned values were recorded on
the reference implementation (one heap entry per tree and edge); a pure
speed change to the queue must reproduce them exactly.

Each case is (built, kept, pruned, grows, merges_tried, merges_done,
sorted result edge sets), one tuple per query.
"""
import pytest

from repro.core import esp, lesp, molesp, moesp
from repro.core.filters import CTPFilters
from repro.graph.random_graphs import dbpedia_lite, random_graph, sample_ctp_workload


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


def _rng_seed():
    g, ss = _three_seeds(5)
    return [lesp(g, ss, rng_seed=3, filters=CTPFilters(max_edges=5))]


def _random_priority():
    g, ss = _three_seeds(6)
    return [esp(g, ss, priority="random", filters=CTPFilters(limit=3))]


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
    "rng_seed": (_rng_seed, [
        (512, 428, 84, 382, 12093, 127,
         [[0, 1, 6, 7, 11], [0, 1, 7, 11, 12], [1, 2, 7, 12, 14],
          [1, 3, 5, 7, 12], [6, 7, 8, 11, 15], [7, 8, 11, 12, 15],
          [7, 12, 13, 14, 15]]),
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
