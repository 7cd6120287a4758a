"""The entry points of ``repro.core`` pause the cyclic garbage collector
for the life of a search, and ``LocalGraph`` pauses it for its build. The
pause must hand back the caller's collector state, and neither a search
nor a build may leave a reference cycle behind: with the collector
paused, a cycle would outlive it until the next full collection."""
import gc
from types import GeneratorType

import pytest

from repro.core import ALGORITHMS, engine
from repro.core.bft import _UTree
from repro.core.engine import CTPSearch
from repro.core.filters import CTPFilters
from repro.core.tree import ResultTree, RTree
from repro.graph import generators as gen
from repro.graph.model import Edge, LocalGraph
from repro.graph.random_graphs import random_graph


def _small_cdf():
    g = gen.cdf(3, n_t=2, n_l=4, s_l=3, seed=3).graph
    return g, [sorted({e.dst for e in g.edges.values() if e.label == lab})
               for lab in "cgh"]


def _random():
    g = random_graph(9, 13, seed=3)
    n = sorted(g.nodes)
    return g, [[n[0]], [n[4]], [n[8]]]


INPUTS = {"cdf": _small_cdf, "random": _random}

# Each way a search can end, and the ``stop`` that says it did.
ENDS = {
    "exhausted": (CTPFilters(), "exhausted"),
    "limit": (CTPFilters(limit=1), "limit"),
    "max_built": (CTPFilters(max_built=10), "budget"),
    "timeout": (CTPFilters(timeout_s=0.0), "timeout"),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_gc_state_restored(algo, enabled):
    g, ss = _random()
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        ALGORITHMS[algo](g, ss)
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError):
            ALGORITHMS[algo](g, [ss[0], []])
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_gc_state_restored_by_graph_build(enabled):
    edges = [Edge(0, 1, "a", 2), Edge(1, 2, "b", 2)]
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        LocalGraph(edges, {1: "one"}, {2: {"t"}})
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError, match="duplicate edge id 1"):
            LocalGraph(edges + [Edge(1, 2, "c", 1)])
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("graph", [
    lambda: random_graph(30, 60, seed=5),
    lambda: LocalGraph([Edge(i, i % 7, "a", (3 * i) % 11) for i in range(40)],
                       {n: f"n{n}" for n in range(11)},
                       {n: {"t", f"u{n % 2}"} for n in range(11)}),
], ids=["random_graph", "edge_list"])
def test_graph_build_leaves_no_cycles(graph):
    gc.collect()
    g = graph()
    g.in_adj_of(1)   # the UNI adjacency, built on first use
    del g
    assert gc.collect() == 0


def search_state():
    """The live objects of the kinds a search builds: searches, trees,
    results and the engine's Grow-candidate iterators."""
    return [o for o in gc.get_objects()
            if isinstance(o, (CTPSearch, RTree, ResultTree, _UTree))
            or isinstance(o, GeneratorType)
            and o.gi_code.co_filename == engine.__file__]


@pytest.mark.parametrize("inputs", sorted(INPUTS))
@pytest.mark.parametrize("end", sorted(ENDS))
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_search_leaves_no_cycles(algo, end, inputs):
    g, ss = INPUTS[inputs]()
    filters, stop = ENDS[end]

    def search():
        out = ALGORITHMS[algo](g, ss, filters=filters)
        assert out.stop == stop

    gc.collect()
    search()
    assert gc.collect() == 0
    # A cycle through a generator is broken by the generator's finalizer,
    # and gc.collect() does not count it. So look for what a search
    # leaves alive while the collector stays paused.
    before = {id(o) for o in search_state()}
    was = gc.isenabled()
    gc.disable()
    try:
        search()
        left = [o for o in search_state() if id(o) not in before]
    finally:
        if was:
            gc.enable()
    assert left == []
