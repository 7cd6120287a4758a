"""Benchmark: Figure 12 — one-result (UNI, LIMIT 1) search on the
DBPedia-like graph: GAM vs MoLESP vs QGSTP-sub (DPBF), per m."""
import pytest

from repro.baselines.dpbf import dpbf
from repro.core import gam, molesp
from repro.core.filters import CTPFilters
from repro.graph.random_graphs import dbpedia_lite, sample_ctp_workload

# A deterministic budget instead of a wall-clock timeout: every MoLESP
# query here stops at LIMIT within 5,095 built trees, so a search
# regression fails the assertion below instead of silently timing out.
_FILTERS = CTPFilters(uni=True, limit=1, max_built=100_000)


@pytest.fixture(scope="module")
def graph():
    return dbpedia_lite(scale=0.05, seed=7)


@pytest.fixture(scope="module")
def workloads(graph):
    return {
        m: sample_ctp_workload(
            graph, m=m, n_queries=3, seed=m, mode="directed", max_hops=1
        )
        for m in (2, 4, 6)
    }


@pytest.mark.parametrize("m", [2, 4, 6])
def test_fig12_molesp(benchmark, graph, workloads, m):
    def run():
        return [
            molesp(graph, ss, filters=_FILTERS) for ss in workloads[m]
        ]

    outs = benchmark.pedantic(run, iterations=1, rounds=2)
    assert all(o.limit_hit and len(o.results) == 1 for o in outs)


@pytest.mark.parametrize("m", [2, 4])
def test_fig12_gam(benchmark, graph, workloads, m):
    def run():
        return [gam(graph, ss, filters=_FILTERS) for ss in workloads[m]]

    benchmark.pedantic(run, iterations=1, rounds=2)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_fig12_qgstp_sub(benchmark, graph, workloads, m):
    def run():
        return [dpbf(graph, ss, uni=True) for ss in workloads[m]]

    benchmark.pedantic(run, iterations=1, rounds=2)
