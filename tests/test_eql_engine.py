"""End-to-end EQL evaluation tests (§3 strategy) on the Figure 1 graph
and CDF benchmark graphs."""
import itertools
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.core import ALL_NODES
from repro.core.filters import CTPFilters
from repro.core.scoring import label_diversity, size_score
from repro.eql import EQLEngine, to_sql
from repro.experiments import table1_yago
from repro.experiments.cdf_eql import Q_M2, Q_M3
from repro.graph import generators as gen
from repro.graph.random_graphs import yago_lite
from repro.lang import parse
from repro.oracle import assert_equivalent, connect

from .helpers import group_job_count

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


def test_readme_example(spark):
    """The "EQL in 30 seconds" example, read from README.md itself, runs
    on Figure 1 and returns its five diversity-ranked trees."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## EQL in 30 seconds", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {"spark": spark}
    exec(code, scope)
    report = scope["report"]
    assert report.result.count() == 5
    assert report.result.schema.simpleString() == (
        "struct<x:bigint,y:bigint,z:bigint,w:array<bigint>,w_score:double>")
    assert [o.stop for o in report.ctp_outcomes] == ["exhausted"]


def test_q1_seed_sets(fig1_engine):
    """Step (B1): seed sets derived from the BGP tables match the paper's
    S1={n2,n4}, S2={n3,n6}, S3={n9}."""
    rep = fig1_engine.evaluate(parse(Q1))
    assert rep.seed_sets[0] == [[2, 4], [3, 6], [9]]


def test_q1_results_include_t_alpha_and_t_beta(fig1_engine):
    rep = fig1_engine.evaluate(parse(Q1))
    trees = {tuple(r["w"]) for r in rep.result.collect()}
    assert (9, 10, 11) in trees      # t_alpha
    assert (1, 2, 16, 17) in trees   # t_beta (bidirectional only)


def test_q1_rows_carry_seed_bindings(fig1_engine):
    rep = fig1_engine.evaluate(parse(Q1))
    for r in rep.result.collect():
        assert r["x"] in (2, 4) and r["y"] in (3, 6) and r["z"] == 9
        assert len(r["w"]) >= 1


def test_q1_uni_filter_drops_t_beta(fig1_engine):
    q = parse(Q1.replace("*w)", "*w) UNI"))
    rep = fig1_engine.evaluate(q)
    trees = {tuple(r["w"]) for r in rep.result.collect()}
    assert (1, 2, 16, 17) not in trees


def test_q1_max_filter(fig1_engine):
    q = parse(Q1.replace("*w)", "*w) MAX 4"))
    rep = fig1_engine.evaluate(q)
    assert all(len(r["w"]) <= 4 for r in rep.result.collect())


def test_q1_score_and_top(fig1_engine):
    q = parse(Q1.replace("*w)", "*w) SCORE size TOP 2"))
    rep = fig1_engine.evaluate(q)
    rows = rep.result.collect()
    assert rows and all(r["w_score"] is not None for r in rows)
    assert len({tuple(r["w"]) for r in rows}) <= 2


def test_q1_algorithms_agree(fig1_engine):
    trees = {}
    for algo in ("GAM", "MoLESP", "BFT"):
        rep = fig1_engine.evaluate(parse(Q1), algo=algo)
        trees[algo] = {
            (r["x"], r["y"], r["z"], tuple(r["w"]))
            for r in rep.result.collect()
        }
    assert trees["GAM"] == trees["MoLESP"] == trees["BFT"]


def test_bft_rejects_multi_queue(fig1_engine):
    with pytest.raises(ValueError, match="multi_queue"):
        fig1_engine.evaluate(parse(Q1), algo="BFT", multi_queue=True)


def test_head_projection_subset(fig1_engine):
    q = parse(Q1.replace("SELECT x, y, z, w", "SELECT x, w"))
    rep = fig1_engine.evaluate(q)
    assert set(rep.result.columns) == {"x", "w"}


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
    assert all(len(r["w2"]) <= 3 for r in rows)


def test_n_seed_set_query(fig1_engine):
    """A bare CTP variable not bound by any BGP is an N seed set (§4.9)."""
    q = parse('SELECT a, n, w WHERE CTP(a{label="Alice"}, n, *w) MAX 2')
    rep = fig1_engine.evaluate(q)
    assert rep.seed_sets[0][1] is ALL_NODES
    rows = rep.result.collect()
    # Alice's 0/1/2-edge neighborhood, n bound to every tree node.
    assert any(r["n"] != r["a"] for r in rows)
    assert all(len(r["w"]) <= 2 for r in rows)


def test_two_n_variables_give_the_product_of_tree_nodes(fig1_engine):
    """Each N variable binds to every node of the tree on its own, so two
    of them give every (n1, n2) pair of the tree's nodes: |nodes(t)|^2 rows
    per tree t, not the |nodes(t)| rows of zipping the two bindings."""
    q = parse('SELECT a, n1, n2, w WHERE CTP(a{label="Alice"}, n1, n2, *w) MAX 2')
    rep = fig1_engine.evaluate(q)
    results = rep.ctp_outcomes[0].results
    table = rep.ctp_tables[0]
    assert len(results) == 13
    assert len(table) == sum(len(rt.nodes) ** 2 for rt in results) == 89
    assert rep.result.count() == 89
    for rt in results:
        rows = table[table["w"] == tuple(sorted(rt.edges))]
        assert sorted(zip(rows["n1"], rows["n2"])) == sorted(
            itertools.product(rt.nodes, repeat=2)
        )


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
        ("x", "bigint"), ("w", "array<bigint>")
    ]


@pytest.mark.parametrize("text, dtypes", [
    ('SELECT w WHERE CTP(x{label="noSuchNode"}, y{label="Alice"}, *w)',
     [("w", "array<bigint>")]),
    ('SELECT x, w WHERE (x, "noSuchEdge", y) AND CTP(x, "Alice", *w)',
     [("x", "bigint"), ("w", "array<bigint>")]),
], ids=["predicate", "bgp"])
def test_empty_seed_set_gives_empty_answer(fig1_engine, text, dtypes):
    """A seed set that a predicate or a BGP leaves empty is not searched:
    its CTP has no results and the answer is empty, with the normal
    schema."""
    rep = fig1_engine.evaluate(parse(text))
    assert [] in rep.seed_sets[0]
    (outcome,) = rep.ctp_outcomes
    assert outcome.stop == "exhausted" and not outcome.results
    assert rep.ctp_tables[0].empty
    assert rep.result.count() == 0 and rep.result.dtypes == dtypes


def test_limit_zero_gives_empty_answer(fig1_engine):
    """LIMIT 0 runs no search: no rows, the normal schema."""
    rep = fig1_engine.evaluate(
        parse('SELECT x, w WHERE CTP(x{label="Alice"}, "USA", *w) LIMIT 0')
    )
    (outcome,) = rep.ctp_outcomes
    assert outcome.stop == "limit" and not outcome.results
    assert rep.result.count() == 0
    assert rep.result.dtypes == [
        ("x", "bigint"), ("w", "array<bigint>")
    ]


def test_evaluate_leaves_no_persistent_rdds(fig1_engine, spark):
    """Evaluating and counting a query leaves nothing cached behind. The
    ids are compared, not the count: Spark's ContextCleaner may drop RDDs
    that earlier tests left persisted (the ``localCheckpoint``s of the
    path baselines) while the query runs."""
    jsc = spark.sparkContext._jsc
    before = set(jsc.getPersistentRDDs().keySet())
    fig1_engine.evaluate(parse(Q1)).result.count()
    assert set(jsc.getPersistentRDDs().keySet()) <= before


def test_answer_is_one_partition_counted_in_one_job(fig1_engine, spark):
    """The answer is handed to Spark as one partition, so counting it is
    one Spark job, and it holds every row of the answer."""
    sc = spark.sparkContext
    result = fig1_engine.evaluate(parse(Q1)).result
    assert result.rdd.getNumPartitions() == 1
    sc.setJobGroup("eql-count", "count of one answer")
    try:
        n = result.count()
    finally:
        sc._jsc.clearJobGroup()
    assert group_job_count(sc, "eql-count") == 1
    assert n == len(result.toPandas()) > 0


def _jobs_of_evaluate_and_count(spark, engine, text: str, group: str, **kwargs):
    """The Spark jobs of one ``evaluate`` and the ``count()`` of its
    answer, read from a job group that only they use."""
    sc = spark.sparkContext
    sc.setJobGroup(group, "evaluate and count")
    try:
        engine.evaluate(parse(text), **kwargs).result.count()
    finally:
        sc._jsc.clearJobGroup()
    return group_job_count(sc, group)


@pytest.mark.parametrize("name, kwargs, jobs", [
    ("J1", {}, 1), ("J2", {"multi_queue": True}, 1), ("J3", {}, 1),
])
def test_table1_job_counts(spark, name, kwargs, jobs):
    """Each BGP of Table 1, node conditions included, is one pattern, so
    its rows are collected from a local table with no job: the count of
    the answer is the only job."""
    eng = EQLEngine(spark, yago_lite(scale=0.25, seed=11))
    text = getattr(table1_yago, name)
    assert _jobs_of_evaluate_and_count(
        spark, eng, text, f"jobs-{name}", **kwargs) == jobs


def test_cdf_m3_job_count(spark):
    """CDF ``Q_M3``: no job for the one-edge BGPs, two for the two-edge
    BGP, whose ``e_1`` is broadcast, and one for the count."""
    eng = EQLEngine(spark, gen.cdf(3, n_t=3, n_l=5, s_l=3, seed=5).graph)
    assert _jobs_of_evaluate_and_count(spark, eng, Q_M3, "jobs-cdf-m3") == 3


@pytest.mark.parametrize("text", [Q1, 'SELECT x, w WHERE (x, e, y) AND CTP(x, "USA", *w)'],
                         ids=["q1", "unneeded_vars"])
def test_bgp_frame_holds_only_needed_variables(fig1_engine, text):
    """Each BGP frame has exactly the needed variables its BGP binds, in
    the BGP's variable order: the SQL projects them."""
    q = parse(text)
    needed = set(q.head) | {p.var for c in q.ctps for p in c.preds}
    for bgp in q.bgps:
        frame = fig1_engine._bgp_frame(bgp, needed)
        assert list(frame.columns) == [v for v in bgp.variables() if v in needed]
        assert not frame.duplicated().any()


def _guarded(label: str) -> str:
    """Two BGPs that bind the seeds, plus a guard BGP on ``label`` edges
    that binds no needed variable."""
    return f'''
SELECT x, y, w
WHERE (x{{type="entrepreneur"}}, "citizenOf", "USA")
AND (y{{type="politician"}}, "citizenOf", "France")
AND (a, "{label}", b)
AND CTP(x, y, *w)
'''


def test_empty_guard_among_bound_bgps(fig1_engine):
    """An empty guard BGP still empties the answer of a query whose other
    BGPs bind rows, and the schema stays."""
    query = parse(_guarded("noSuchLabel"))
    assert len(query.bgps) == 3
    empty = fig1_engine.evaluate(query).result
    full = fig1_engine.evaluate(parse(_guarded("citizenOf"))).result
    assert empty.count() == 0 and full.count() > 0
    assert empty.dtypes == full.dtypes == [
        ("x", "bigint"), ("y", "bigint"), ("w", "array<bigint>"),
    ]


def test_over_merges_defaults():
    f = CTPFilters(uni=True, max_edges=3).over(CTPFilters(timeout_s=5.0))
    assert f.uni and f.max_edges == 3 and f.timeout_s == 5.0
    assert CTPFilters().over(CTPFilters(limit=2)).limit == 2


# One value per CTPFilters field that differs from its default; a field
# added to the record must get one here.
_CLAUSE_VALUES = {
    "uni": True, "labels": frozenset({"citizenOf"}), "max_edges": 3,
    "top_k": 2, "limit": 5, "score": label_diversity, "timeout_s": 1.5,
    "max_built": 100,
}


@pytest.mark.parametrize("name", [f.name for f in fields(CTPFilters)])
def test_over_carries_every_field(name):
    """A clause that sets ``name`` (TOP with its SCORE) gives the defaults
    with that field set; no filter of the clause is dropped."""
    defaults = CTPFilters(score=size_score, timeout_s=9.0)
    clause = {name: _CLAUSE_VALUES[name]}
    if name == "top_k":
        clause["score"] = label_diversity
    assert CTPFilters(**clause).over(defaults) == replace(defaults, **clause)


# ---- CDF integration (the §5.5.1 workloads at test scale) ----------------


def test_cdf_m2_one_result_per_link(spark):
    b = gen.cdf(2, n_t=3, n_l=6, s_l=3, seed=4)
    rep = EQLEngine(spark, b.graph).evaluate(parse(Q_M2))
    rows = rep.result.collect()
    # One tree per link instance; links sharing (tl, bl) produce parallel
    # paths, i.e. distinct trees for the same pair.
    assert len(rows) == len(b.links)
    assert {(r["tl"], r["bl"]) for r in rows} == set(b.links)


def test_cdf_m2_uni_equivalent_here(spark):
    """CDF links are directed top->bottom, so UNI finds the same rows."""
    b = gen.cdf(2, n_t=3, n_l=6, s_l=3, seed=4)
    eng = EQLEngine(spark, b.graph)
    n_bi = eng.evaluate(parse(Q_M2)).result.count()
    n_uni = eng.evaluate(parse(Q_M2.replace("*l)", "*l) UNI"))).result.count()
    assert n_bi == n_uni == len(b.links)


def test_cdf_m3_join_filters_extra_trees(spark):
    """Bidirectional search finds extra trees (via bottom-tree edges); the
    BGP join keeps only trees for (tl, bl1, bl2) sibling triples — §5.5.1's
    'filtered by the join' observation."""
    b = gen.cdf(3, n_t=3, n_l=5, s_l=3, seed=5)
    rep = EQLEngine(spark, b.graph).evaluate(parse(Q_M3))
    ctp_found = len(rep.ctp_outcomes[0].results)
    joined = rep.result.count()
    assert joined < ctp_found  # the join filtered something
    triples = {(r["tl"], r["bl1"], r["bl2"]) for r in rep.result.collect()}
    assert set(b.links) <= triples


def test_cdf_m3_uni_exactly_links(spark):
    b = gen.cdf(3, n_t=3, n_l=5, s_l=3, seed=5)
    rep = EQLEngine(spark, b.graph).evaluate(
        parse(Q_M3.replace("*l)", "*l) UNI"))
    )
    rows = rep.result.collect()
    assert {(r["tl"], r["bl1"], r["bl2"]) for r in rows} == set(b.links)


def _assert_join_matches_duckdb(graph, query, rep):
    """Step (C) against DuckDB: the full BGP tables (each ``to_sql(bgp)``
    run by DuckDB, no pre-projection) natural-joined with the engine's CTP
    tables, then projected on the head with set semantics."""
    con = connect()
    try:
        for name, pdf in graph.to_pandas().items():
            con.register(name, pdf)
        bgps = {
            f"b{i}": con.execute(to_sql(b)).fetchdf()
            for i, b in enumerate(query.bgps)
        }
    finally:
        con.close()
    tables = {f"c{i}": t for i, t in enumerate(rep.ctp_tables)} | bgps
    # DuckDB refuses a NATURAL JOIN on no shared column; that step is a
    # CROSS JOIN, which is what a natural join then means.
    names = list(tables)
    seen = set(tables[names[0]].columns)
    sql = f"SELECT DISTINCT {', '.join(rep.result.columns)} FROM {names[0]}"
    for name in names[1:]:
        cols = set(tables[name].columns)
        sql += (" NATURAL JOIN " if cols & seen else " CROSS JOIN ") + name
        seen |= cols
    assert_equivalent(rep.result, sql, **tables)


# e and o are not needed: each entrepreneur has several (e, o) rows, which
# the set semantics of Def. 2.10 must not turn into duplicate answers.
TWO_CTPS = '''
SELECT x, w1, w2
WHERE (x{type="entrepreneur"}, e, o)
AND CTP(x, "USA", *w1) MAX 3
AND CTP(x, "France", *w2) MAX 3
'''


# x is a seed and w a tree column outside the head: several (x, w) rows
# project to one answer.
SEED_NOT_IN_HEAD = 'SELECT x WHERE CTP(x{type="entrepreneur"}, "Eve", *w)'

# The two CTP tables share no column; only the BGP links them (y and z),
# so the join must not start with their cross product.
CTPS_LINKED_BY_BGP = '''
SELECT x, z, w1, w2
WHERE (y, e, z)
AND CTP(x, y, *w1) MAX 2
AND CTP(z, "Eve", *w2) MAX 2
'''


# A ~ type condition compiles to SQL that reads size(src_types), which
# DuckDB has only through repro.oracle.connect().
TYPE_LIKE = 'SELECT x, y, w WHERE (x{type~"entre*"}, e, y) AND CTP(x, "USA", *w) MAX 3'


@pytest.mark.parametrize(
    "text", [Q1, TWO_CTPS, SEED_NOT_IN_HEAD, CTPS_LINKED_BY_BGP, TYPE_LIKE],
    ids=["q1", "two_ctps", "seed_not_in_head", "ctps_linked_by_bgp", "type_like"],
)
def test_fig1_join_matches_duckdb(fig1_engine, text):
    q = parse(text)
    rep = fig1_engine.evaluate(q)
    assert rep.result.count() > 0
    _assert_join_matches_duckdb(fig1_engine.graph, q, rep)


@pytest.mark.parametrize("uni", [True, False], ids=["uni", "bidir"])
def test_cdf_m3_join_matches_duckdb(spark, uni):
    b = gen.cdf(3, n_t=3, n_l=5, s_l=3, seed=5)
    q = parse(Q_M3.replace("*l)", "*l) UNI") if uni else Q_M3)
    rep = EQLEngine(spark, b.graph).evaluate(q)
    _assert_join_matches_duckdb(b.graph, q, rep)


def test_multi_queue_mode_same_results(fig1_engine):
    a = fig1_engine.evaluate(parse(Q1))
    b = fig1_engine.evaluate(parse(Q1), multi_queue=True)
    rows = lambda rep: {
        (r["x"], r["y"], r["z"], tuple(r["w"])) for r in rep.result.collect()
    }
    assert rows(a) == rows(b)
