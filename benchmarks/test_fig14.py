"""Benchmark: Figure 14 — EQL on CDF m=3 vs stitched-path baselines."""
import pytest

from repro.baselines.paths import enumerate_paths, stitch_paths_m3
from repro.eql import EQLEngine
from repro.experiments.cdf_eql import Q_M3
from repro.graph import generators as gen
from repro.lang import parse


@pytest.fixture(scope="module")
def setup(spark):
    b = gen.cdf(3, n_t=32, n_l=64, s_l=3, seed=17)
    eng = EQLEngine(spark, b.graph)
    edges = eng.dfs["edges"].cache()
    edges.count()
    rep = eng.evaluate(parse(Q_M3.replace("*l)", "*l) MAX 0")))
    tl, bl1, bl2 = rep.seed_sets[0]
    return b, eng, edges, tl, sorted(set(bl1) | set(bl2))


def test_fig14_postgres_sub_stitched(benchmark, spark, setup):
    b, eng, edges, tl, bl = setup

    def run():
        p = enumerate_paths(spark, edges, tl, bl, 4)
        return stitch_paths_m3(p, p).count()

    benchmark.pedantic(run, iterations=1, rounds=2)


def test_fig14_uni_molesp(benchmark, spark, setup):
    b, eng, edges, tl, bl = setup
    out = benchmark.pedantic(
        lambda: eng.evaluate(parse(Q_M3.replace("*l)", "*l) UNI"))).result.count(),
        iterations=1, rounds=2,
    )
    assert out == len(b.links)


def test_fig14_molesp_bidirectional(benchmark, spark, setup):
    b, eng, edges, tl, bl = setup
    n = benchmark.pedantic(
        lambda: eng.evaluate(parse(Q_M3)).result.count(),
        iterations=1, rounds=2,
    )
    # The 64 UNI trees plus the bidirectional ones the BGP join keeps.
    assert n == 440
