"""End-to-end EQL evaluation tests (§3 strategy) on the Figure 1 graph
and CDF benchmark graphs."""
import json

import duckdb
import pytest

from repro.core import ALL_NODES
from repro.core.filters import CTPFilters
from repro.eql import EQLEngine, filters_from_spec, to_sql
from repro.graph import generators as gen
from repro.lang import parse
from repro.lang.ast import CTPFilterSpec
from repro.oracle import assert_equivalent

Q1 = '''
SELECT x, y, z, w
WHERE (x{type="entrepreneur"}, "citizenOf", "USA")
AND (y{type="entrepreneur"}, "citizenOf", "France")
AND (z{type="politician"}, "citizenOf", "France")
AND CTP(x, y, z, *w)
'''


@pytest.fixture(scope="module")
def fig1_engine(spark):
    return EQLEngine(spark, gen.figure1().graph)


def test_q1_seed_sets(fig1_engine):
    """Step (B1): seed sets derived from the BGP tables match the paper's
    S1={n2,n4}, S2={n3,n6}, S3={n9}."""
    rep = fig1_engine.evaluate(parse(Q1))
    assert rep.seed_sets[0] == [[2, 4], [3, 6], [9]]


def test_q1_results_include_t_alpha_and_t_beta(fig1_engine):
    rep = fig1_engine.evaluate(parse(Q1))
    trees = {tuple(json.loads(r["w"])) for r in rep.result.collect()}
    assert (9, 10, 11) in trees      # t_alpha
    assert (1, 2, 16, 17) in trees   # t_beta (bidirectional only)


def test_q1_rows_carry_seed_bindings(fig1_engine):
    rep = fig1_engine.evaluate(parse(Q1))
    for r in rep.result.collect():
        assert r["x"] in (2, 4) and r["y"] in (3, 6) and r["z"] == 9
        assert r["w_size"] >= 1


def test_q1_uni_filter_drops_t_beta(fig1_engine):
    q = parse(Q1.replace("*w)", "*w) UNI"))
    rep = fig1_engine.evaluate(q)
    trees = {tuple(json.loads(r["w"])) for r in rep.result.collect()}
    assert (1, 2, 16, 17) not in trees


def test_q1_max_filter(fig1_engine):
    q = parse(Q1.replace("*w)", "*w) MAX 4"))
    rep = fig1_engine.evaluate(q)
    assert all(r["w_size"] <= 4 for r in rep.result.collect())


def test_q1_score_and_top(fig1_engine):
    q = parse(Q1.replace("*w)", "*w) SCORE size TOP 2"))
    rep = fig1_engine.evaluate(q)
    rows = rep.result.collect()
    assert rows and all(r["w_score"] is not None for r in rows)
    assert len({r["w"] for r in rows}) <= 2


def test_q1_algorithms_agree(fig1_engine):
    trees = {}
    for algo in ("GAM", "MoLESP", "BFT"):
        rep = fig1_engine.evaluate(parse(Q1), algo=algo)
        trees[algo] = {
            (r["x"], r["y"], r["z"], tuple(json.loads(r["w"])))
            for r in rep.result.collect()
        }
    assert trees["GAM"] == trees["MoLESP"] == trees["BFT"]


def test_head_projection_subset(fig1_engine):
    q = parse(Q1.replace("SELECT x, y, z, w", "SELECT x, w"))
    rep = fig1_engine.evaluate(q)
    assert set(rep.result.columns) == {"x", "w", "w_size"}


def test_two_ctps(fig1_engine, spark):
    q = parse('''
        SELECT x, w1, w2
        WHERE CTP(x{label="Alice"}, "OrgB", *w1)
        AND CTP(x{label="Alice"}, "USA", *w2) MAX 3
    ''')
    # Each underlined var appears once; x is shared between the CTPs.
    with pytest.raises(ValueError):
        parse('SELECT x WHERE CTP(x, y, *w) AND CTP(a, b, *w)')
    rep = fig1_engine.evaluate(q)
    rows = rep.result.collect()
    assert rows
    assert all(json.loads(r["w2"]).__len__() <= 3 for r in rows)


def test_n_seed_set_query(fig1_engine):
    """A bare CTP variable not bound by any BGP is an N seed set (§4.9)."""
    q = parse('SELECT a, n, w WHERE CTP(a{label="Alice"}, n, *w) MAX 2')
    rep = fig1_engine.evaluate(q)
    assert rep.seed_sets[0][1] is ALL_NODES
    rows = rep.result.collect()
    # Alice's 0/1/2-edge neighborhood, n bound to every tree node.
    assert any(r["n"] != r["a"] for r in rows)
    assert all(r["w_size"] <= 2 for r in rows)


@pytest.mark.parametrize(
    "node_type, expected",
    [("politician", [9]), ("entrepreneur", [2, 3, 4, 6])],
    ids=["politician", "entrepreneur"],
)
def test_bound_seed_set_intersects_predicate(fig1_engine, node_type, expected):
    """Step (B1): a predicate on a BGP-bound variable narrows the BGP's
    bindings (every citizenOf source) to the nodes that satisfy it."""
    q = parse(
        f'SELECT x, w WHERE (x, "citizenOf", y) '
        f'AND CTP(x{{type="{node_type}"}}, "USA", *w)'
    )
    g = fig1_engine.graph
    citizens = {e.src for e in g.edges.values() if e.label == "citizenOf"}
    assert sorted(citizens & set(g.nodes_by_type(node_type))) == expected
    assert citizens > set(expected)
    assert fig1_engine.evaluate(q).seed_sets[0] == [expected, [10]]


def test_empty_guard_bgp_keeps_result_schema(fig1_engine):
    """A BGP binding no needed variable only guards the result; when it
    matches nothing the result is empty but keeps the normal schema."""
    guard = (
        'SELECT x, w WHERE (a, "{}", b) AND CTP(x{{label="Alice"}}, "USA", *w)'
    )
    empty = fig1_engine.evaluate(parse(guard.format("noSuchLabel"))).result
    full = fig1_engine.evaluate(parse(guard.format("citizenOf"))).result
    assert empty.count() == 0 and full.count() > 0
    assert empty.dtypes == full.dtypes == [
        ("x", "bigint"), ("w", "string"), ("w_size", "bigint")
    ]


def test_evaluate_leaves_no_persistent_rdds(fig1_engine, spark):
    """Evaluating and counting a query leaves nothing cached behind."""
    jsc = spark.sparkContext._jsc
    before = jsc.getPersistentRDDs().size()
    fig1_engine.evaluate(parse(Q1)).result.count()
    assert jsc.getPersistentRDDs().size() == before


def test_filters_from_spec_merges_defaults():
    f = filters_from_spec(
        CTPFilterSpec(uni=True, max_edges=3), CTPFilters(timeout_s=5.0)
    )
    assert f.uni and f.max_edges == 3 and f.timeout_s == 5.0
    assert filters_from_spec(CTPFilterSpec(), CTPFilters(limit=2)).limit == 2


# ---- CDF integration (the §5.5.1 workloads at test scale) ----------------

CDF_Q2 = '''
SELECT tl, bl, l
WHERE (x, "c", tl)
AND (v, "g", bl)
AND CTP(tl, bl, *l)
'''

CDF_Q3 = '''
SELECT tl, bl1, bl2, l
WHERE (x, "c", tl)
AND (v, "g", bl1)
AND (v, "h", bl2)
AND CTP(tl, bl1, bl2, *l)
'''


def test_cdf_m2_one_result_per_link(spark):
    b = gen.cdf(2, n_t=3, n_l=6, s_l=3, seed=4)
    rep = EQLEngine(spark, b.graph).evaluate(parse(CDF_Q2))
    rows = rep.result.collect()
    # One tree per link instance; links sharing (tl, bl) produce parallel
    # paths, i.e. distinct trees for the same pair.
    assert len(rows) == len(b.links)
    assert {(r["tl"], r["bl"]) for r in rows} == set(b.links)


def test_cdf_m2_uni_equivalent_here(spark):
    """CDF links are directed top->bottom, so UNI finds the same rows."""
    b = gen.cdf(2, n_t=3, n_l=6, s_l=3, seed=4)
    eng = EQLEngine(spark, b.graph)
    n_bi = eng.evaluate(parse(CDF_Q2)).result.count()
    n_uni = eng.evaluate(parse(CDF_Q2.replace("*l)", "*l) UNI"))).result.count()
    assert n_bi == n_uni == len(b.links)


def test_cdf_m3_join_filters_extra_trees(spark):
    """Bidirectional search finds extra trees (via bottom-tree edges); the
    BGP join keeps only trees for (tl, bl1, bl2) sibling triples — §5.5.1's
    'filtered by the join' observation."""
    b = gen.cdf(3, n_t=3, n_l=5, s_l=3, seed=5)
    rep = EQLEngine(spark, b.graph).evaluate(parse(CDF_Q3))
    ctp_found = len(rep.ctp_outcomes[0].results)
    joined = rep.result.count()
    assert joined < ctp_found  # the join filtered something
    triples = {(r["tl"], r["bl1"], r["bl2"]) for r in rep.result.collect()}
    assert set(b.links) <= triples


def test_cdf_m3_uni_exactly_links(spark):
    b = gen.cdf(3, n_t=3, n_l=5, s_l=3, seed=5)
    rep = EQLEngine(spark, b.graph).evaluate(
        parse(CDF_Q3.replace("*l)", "*l) UNI"))
    )
    rows = rep.result.collect()
    assert {(r["tl"], r["bl1"], r["bl2"]) for r in rows} == set(b.links)


def _assert_join_matches_duckdb(graph, query, rep):
    """Step (C) against DuckDB: the full BGP tables (each ``to_sql(bgp)``
    run by DuckDB, no pre-projection) natural-joined with the engine's CTP
    tables, then projected on the head with set semantics."""
    con = duckdb.connect()
    try:
        for name, pdf in graph.to_pandas().items():
            con.register(name, pdf)
        bgps = {
            f"b{i}": con.execute(to_sql(b)).fetchdf()
            for i, b in enumerate(query.bgps)
        }
    finally:
        con.close()
    # CTP tables first: every BGP shares a seed variable with one of them.
    tables = {f"c{i}": t for i, t in enumerate(rep.ctp_tables)} | bgps
    sql = (
        f"SELECT DISTINCT {', '.join(rep.result.columns)} FROM "
        + " NATURAL JOIN ".join(tables)
    )
    assert_equivalent(rep.result, sql, **tables)


# e and o are not needed: each entrepreneur has several (e, o) rows, which
# the set semantics of Def. 2.10 must not turn into duplicate answers.
TWO_CTPS = '''
SELECT x, w1, w2
WHERE (x{type="entrepreneur"}, e, o)
AND CTP(x, "USA", *w1) MAX 3
AND CTP(x, "France", *w2) MAX 3
'''


@pytest.mark.parametrize("text", [Q1, TWO_CTPS], ids=["q1", "two_ctps"])
def test_fig1_join_matches_duckdb(fig1_engine, text):
    q = parse(text)
    rep = fig1_engine.evaluate(q)
    assert rep.result.count() > 0
    _assert_join_matches_duckdb(fig1_engine.graph, q, rep)


@pytest.mark.parametrize("uni", [True, False], ids=["uni", "bidir"])
def test_cdf_m3_join_matches_duckdb(spark, uni):
    b = gen.cdf(3, n_t=3, n_l=5, s_l=3, seed=5)
    q = parse(CDF_Q3.replace("*l)", "*l) UNI") if uni else CDF_Q3)
    rep = EQLEngine(spark, b.graph).evaluate(q)
    _assert_join_matches_duckdb(b.graph, q, rep)


def test_multi_queue_mode_same_results(fig1_engine):
    a = fig1_engine.evaluate(parse(Q1))
    b = fig1_engine.evaluate(parse(Q1), multi_queue=True)
    rows = lambda rep: {
        (r["x"], r["y"], r["z"], r["w"]) for r in rep.result.collect()
    }
    assert rows(a) == rows(b)
