"""BGP compiler correctness: the same SQL runs on Spark (Catalyst) and
DuckDB, and results must agree (repro.oracle)."""
import pytest

from repro.eql.bgp import to_sql
from repro.graph import generators as gen
from repro.graph.random_graphs import yago_lite
from repro.lang import parse
from repro.lang.ast import BGP, Cond, EdgePattern, Pred
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def fig1_tables(spark):
    g = gen.figure1().graph
    dfs = g.to_spark(spark)
    for name, df in dfs.items():
        df.createOrReplaceTempView(name)
    return g.to_pandas()


def _check(spark, tables, bgp, project=None):
    sql = to_sql(bgp, project=project)
    assert_equivalent(spark.sql(sql), sql, **tables)


def test_constant_labels(spark, fig1_tables):
    q = parse('SELECT x WHERE (x, "citizenOf", "USA") AND CTP(x, x2, *w)')
    _check(spark, fig1_tables, q.bgps[0], project=["x"])


def test_type_condition(spark, fig1_tables):
    q = parse(
        'SELECT x WHERE (x{type="entrepreneur"}, "citizenOf", "France") '
        "AND CTP(x, y, *w)"
    )
    _check(spark, fig1_tables, q.bgps[0], project=["x"])


def test_like_condition(spark, fig1_tables):
    q = parse('SELECT x WHERE (x{label~"*lice"}, e, y) AND CTP(x, y2, *w)')
    _check(spark, fig1_tables, q.bgps[0], project=["x", "e", "y"])


def test_join_two_patterns(spark, fig1_tables):
    q = parse(
        'SELECT x WHERE (x, "founded", o) AND (x, "citizenOf", c) '
        "AND CTP(x, z, *w)"
    )
    _check(spark, fig1_tables, q.bgps[0])


def test_shared_target_var(spark, fig1_tables):
    q = parse(
        'SELECT x, y WHERE (x, "memberOf", o) AND (y, "memberOf", o) '
        "AND CTP(x, y, *w)"
    )
    _check(spark, fig1_tables, q.bgps[0], project=["x", "y", "o"])


def test_empty_result_bgp(spark, fig1_tables):
    q = parse('SELECT x WHERE (x, "noSuchLabel", y) AND CTP(x, y, *w)')
    _check(spark, fig1_tables, q.bgps[0], project=["x", "y"])


def test_edge_var_projection(spark, fig1_tables):
    q = parse('SELECT e WHERE (x, e, y) AND CTP(x, y, *w)')
    _check(spark, fig1_tables, q.bgps[0], project=["e"])


def test_q1_all_three_bgps(spark, fig1_tables):
    q = parse('''
        SELECT x, y, z, w
        WHERE (x{type="entrepreneur"}, "citizenOf", "USA")
        AND (y{type="entrepreneur"}, "citizenOf", "France")
        AND (z{type="politician"}, "citizenOf", "France")
        AND CTP(x, y, z, *w)
    ''')
    for bgp, v in zip(q.bgps, ("x", "y", "z")):
        _check(spark, fig1_tables, bgp, project=[v])


def test_lt_condition(spark, fig1_tables):
    bgp = BGP((
        EdgePattern(
            Pred("x", (Cond("label", "<", "C"),)), Pred("e"), Pred("y")
        ),
    ))
    _check(spark, fig1_tables, bgp, project=["x", "y"])


def test_on_yago_lite(spark):
    g = yago_lite(scale=0.02)
    dfs = g.to_spark(spark)
    for name, df in dfs.items():
        df.createOrReplaceTempView(name)
    tables = g.to_pandas()
    q = parse(
        'SELECT x, y WHERE (x{type="person"}, "knows", y) AND CTP(x, y, *w)'
    )
    _check(spark, tables, q.bgps[0], project=["x", "y"])


@pytest.fixture
def fig1_edges(spark, fig1_tables):
    """Fig 1's edges under a view name no other test re-registers."""
    pdf = fig1_tables["edges"]
    spark.createDataFrame(pdf).createOrReplaceTempView("fig1_edges")
    return pdf


def test_oracle_agreement_on_aggregate(spark, fig1_edges):
    q = """
        SELECT label, COUNT(*) AS n, AVG(src) AS mean_src
        FROM fig1_edges GROUP BY label
    """
    assert_equivalent(spark.sql(q), q, fig1_edges=fig1_edges)


def test_oracle_catches_wrong_result(spark, fig1_edges):
    good = "SELECT COUNT(*) AS n FROM fig1_edges"
    bad_df = spark.sql("SELECT COUNT(*) + 1 AS n FROM fig1_edges")
    with pytest.raises(AssertionError):
        assert_equivalent(bad_df, good, fig1_edges=fig1_edges)
