"""Benchmark: Figure 13 — EQL on CDF m=2 vs baselines (one size point;
the scaling sweep comes from ``python jobs/run.py fig13``)."""
import pytest

from repro.baselines.paths import enumerate_paths, reachable_pairs
from repro.eql import EQLEngine
from repro.experiments.cdf_eql import Q_M2
from repro.graph import generators as gen
from repro.lang import parse


@pytest.fixture(scope="module")
def setup(spark):
    b = gen.cdf(2, n_t=32, n_l=64, s_l=3, seed=17)
    eng = EQLEngine(spark, b.graph)
    edges = eng.dfs["edges"].cache()
    edges.count()
    rep = eng.evaluate(parse(Q_M2.replace("*l)", "*l) MAX 0")))
    tl, bl = rep.seed_sets[0]
    return b, eng, edges, tl, bl


def test_fig13_virtuoso_sub(benchmark, spark, setup):
    b, eng, edges, tl, bl = setup
    benchmark.pedantic(
        lambda: reachable_pairs(spark, edges, tl, bl, 4).count(),
        iterations=1, rounds=2,
    )


def test_fig13_postgres_sub(benchmark, spark, setup):
    b, eng, edges, tl, bl = setup
    benchmark.pedantic(
        lambda: enumerate_paths(spark, edges, tl, bl, 4).count(),
        iterations=1, rounds=2,
    )


def test_fig13_neo4j_sub(benchmark, spark, setup):
    b, eng, edges, tl, bl = setup
    benchmark.pedantic(
        lambda: enumerate_paths(
            spark, edges, tl, bl, 4, directed=False
        ).count(),
        iterations=1, rounds=2,
    )


def test_fig13_uni_molesp(benchmark, spark, setup):
    b, eng, edges, tl, bl = setup
    out = benchmark.pedantic(
        lambda: eng.evaluate(parse(Q_M2.replace("*l)", "*l) UNI"))).result.count(),
        iterations=1, rounds=2,
    )
    assert out == len(b.links)


def test_fig13_molesp_bidirectional(benchmark, spark, setup):
    b, eng, edges, tl, bl = setup
    out = benchmark.pedantic(
        lambda: eng.evaluate(parse(Q_M2)).result.count(),
        iterations=1, rounds=2,
    )
    assert out == len(b.links)
