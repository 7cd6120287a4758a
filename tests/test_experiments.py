"""The §5 shapes (Figs 10-14, Table 1) on small instances, through the
experiments' own code where it is cheap: ``fig10_baselines.sweep`` for
Figs 10/11 and ``fig12_qgstp.run`` for Fig 12. The ``run()`` of Figs
13/14 and Table 1 also times the Spark path baselines, so their queries
go through ``EQLEngine`` here. Timing is left to ``python jobs/run.py``
(the tables) and perfbench (the benchmark)."""
import pytest

from repro.core.filters import CTPFilters
from repro.eql import EQLEngine
from repro.experiments import fig10_baselines, fig11_variants, fig12_qgstp
from repro.experiments.cdf_eql import Q_M2, Q_M3
from repro.experiments.table1_yago import J1, J2, J3
from repro.graph import generators as gen
from repro.graph.random_graphs import yago_lite
from repro.lang import parse


def test_fig10_every_baseline_finds_the_one_result():
    """Line(8,2), Comb(4,1,2,2) and Star(7,2) each have one result, and
    every algorithm finds it and exhausts; BFT-AM, whose Merge costs the
    most, is not run on Star."""
    all_algos = fig10_baselines.ALGOS
    no_am = [a for a in all_algos if a != "BFT-AM"]
    for algos, lines, combs, stars in (
        (all_algos, [(8, 2)], [(4, 1, 2, 2)], []),
        (no_am, [], [], [(7, 2)]),
    ):
        t = fig10_baselines.sweep(algos, lines, combs, stars, timeout_s=10.0)
        assert len(t) == len(algos) * len(lines + combs + stars)
        assert (t.results == 1).all() and (t.stop == "exhausted").all(), t


def test_fig11_pruning_variants_shape():
    """On Line(10,4) and Comb(5,1,2,2), ESP and LESP prune away the one
    result that GAM, MoESP and MoLESP find, and MoLESP builds fewer trees
    than GAM (as many as MoESP); on Star(8,2) every variant finds it."""
    t = fig10_baselines.sweep(
        fig11_variants.ALGOS, [(10, 4)], [(5, 1, 2, 2)], [(8, 2)], timeout_s=30.0
    ).set_index(["family", "algo"])
    for family in ("Line", "Comb"):
        rows = t.loc[family]
        assert (rows.stop == "exhausted").all(), rows
        assert rows.results.to_dict() == {
            "GAM": 1, "ESP": 0, "MoESP": 1, "LESP": 0, "MoLESP": 1
        }, rows
        assert rows.built["MoLESP"] == rows.built["MoESP"] < rows.built["GAM"], rows
    assert (t.loc["Star"].results == 1).all(), t.loc["Star"]


def test_fig12_molesp_and_qgstp_sub_answer_every_query():
    """UNI + LIMIT 1 on dbpedia_lite(0.05): MoLESP and QGSTP-sub find a
    result for each of the 3 queries at every m, MoLESP within its
    timeout."""
    t = fig12_qgstp.run(scale=0.05, queries_per_m=3)
    assert sorted(set(t.m)) == list(fig12_qgstp.M_VALUES)
    for algo in ("MoLESP", "QGSTP-sub"):
        rows = t[t.algo == algo]
        assert (rows.found == rows.queries).all() and (rows.timeouts == 0).all(), t


@pytest.mark.parametrize("m, query", [(2, Q_M2), (3, Q_M3)], ids=["fig13", "fig14"])
def test_fig13_fig14_cdf_rows(spark, m, query):
    """On cdf(m, 32, 64, 3, seed=17) the UNI query gives one row per
    link, and so does the bidirectional one at m=2; at m=3 the BGP join
    keeps 440 rows, the UNI ones and bidirectional trees."""
    b = gen.cdf(m, n_t=32, n_l=64, s_l=3, seed=17)
    eng = EQLEngine(spark, b.graph)
    uni = eng.evaluate(parse(query.replace("*l)", "*l) UNI")))
    assert uni.result.count() == len(b.links)
    bidir = eng.evaluate(parse(query)).result.count()
    assert bidir == (len(b.links) if m == 2 else 440)


@pytest.fixture(scope="module")
def yago_engine(spark):
    return EQLEngine(spark, yago_lite(scale=0.1, seed=11))


@pytest.mark.parametrize("query, multi_queue, rows", [
    (J1, False, 6008), (J2, True, 200), (J3, False, 1326),
], ids=["J1", "J2-multi-queue", "J3-N-seed-set"])
def test_table1_rows(yago_engine, query, multi_queue, rows):
    """J1-J3 on yago_lite(0.1) under a work budget, not a wall-clock
    timeout, so the rows are the same on every host: each CTP exhausts
    or stops at its LIMIT far below the budget."""
    rep = yago_engine.evaluate(
        parse(query), algo="MoLESP",
        default_filters=CTPFilters(max_built=2_000_000), multi_queue=multi_queue,
    )
    assert all(o.stop in ("exhausted", "limit") for o in rep.ctp_outcomes)
    assert rep.result.count() == rows
