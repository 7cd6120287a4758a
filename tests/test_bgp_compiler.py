"""BGP compiler semantics against brute force, plan shape, and LIKE.

DuckDB runs the same SQL string as Spark, so it cannot catch a compiler
that emits the wrong query. Here Spark's result of ``to_sql`` is compared
with ``helpers.bgp_embeddings``, which enumerates edge assignments over
the ``LocalGraph`` and checks ``Cond.matches``.
"""
import re

import pytest

from repro.eql.bgp import to_sql
from repro.experiments.cdf_eql import Q_M3
from repro.experiments.table1_yago import J1, J2
from repro.graph import generators as gen
from repro.graph.model import Edge, LocalGraph
from repro.graph.random_graphs import random_graph, yago_lite
from repro.lang import parse
from repro.lang.ast import Cond
from repro.oracle import assert_equivalent

from .helpers import bgp_embeddings


def _random_with_loops() -> LocalGraph:
    """A small random graph plus two self-loops and a parallel edge."""
    g = random_graph(10, 20, seed=3)
    extra = [Edge(100, 3, "l0", 3), Edge(101, 5, "l1", 5), Edge(102, 3, "l0", 3)]
    return LocalGraph(list(g.edges.values()) + extra, g.node_labels)


GRAPHS = {
    "figure1": lambda: gen.figure1().graph,
    "random": _random_with_loops,
    "yago": lambda: yago_lite(scale=0.02),
    "cdf": lambda: gen.cdf(3, n_t=4, n_l=8, s_l=3, seed=17).graph,
}


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in GRAPHS.items()}


def _bgps(text: str):
    text = text.strip()
    return parse(text if text.startswith("SELECT") else f"SELECT x WHERE {text}").bgps


CASES = [
    # The test_bgp_oracle.py cases.
    ("figure1", '(x, "citizenOf", "USA")'),
    ("figure1", '(x{type="entrepreneur"}, "citizenOf", "France")'),
    ("figure1", '(x{label~"*lice"}, e, y)'),
    ("figure1", '(x, "founded", o) AND (x, "citizenOf", c)'),
    ("figure1", '(x, "memberOf", o) AND (y, "memberOf", o)'),
    ("figure1", '(x, e, y)'),
    ("figure1", '(x{type="entrepreneur"}, "citizenOf", "USA")'),
    ("figure1", '(x{type="politician"}, "citizenOf", "France")'),
    ("figure1", '(x{label<"C"}, e, y)'),
    # A node used in two patterns, with conditions in both.
    ("figure1", '(x{type="entrepreneur"}, "citizenOf", c) AND '
                '(x{label~"*a*"}, "founded", o)'),
    ("figure1", '(x, "knows", y) AND (y{type="entrepreneur"}, "citizenOf", c)'),
    # Repeated node variables: a path and a cycle.
    ("random", '(x, "l0", y) AND (y, "l1", z)'),
    ("random", '(x, a, y) AND (y, b, z) AND (z, c, x)'),
    # Self-loops and shared edge variables.
    ("random", '(x, l, x)'),
    ("random", '(x, e, y) AND (y, e, x)'),
    ("random", '(x, e, y) AND (z, e, w)'),
    ("random", '(x{label="n3"}, e, y) AND (y, f, x)'),
    # The BGPs of Table 1 J1/J2 and of CDF Q_M3.
    *[("yago", q) for q in (J1, J2)],
    ("cdf", Q_M3),
]


def _register(spark, g: LocalGraph) -> None:
    for name, df in g.to_spark(spark).items():
        df.createOrReplaceTempView(name)


@pytest.mark.parametrize("graph,text", CASES)
def test_to_sql_matches_brute_force(spark, graphs, graph, text):
    g = graphs[graph]
    _register(spark, g)
    for bgp in _bgps(text):
        project = bgp.variables()
        got = {tuple(r) for r in spark.sql(to_sql(bgp, project)).collect()}
        assert got == bgp_embeddings(g, bgp, project), text


def test_brute_force_cases_are_not_vacuous(graphs):
    """Every case above has answers, so the comparison means something."""
    for graph, text in CASES:
        for bgp in _bgps(text):
            assert bgp_embeddings(graphs[graph], bgp, bgp.variables()), text


def test_self_loop_binds_once():
    """(x, l, x) compiles to an equality of the edge's two endpoints."""
    sql = to_sql(_bgps("(x, l, x)")[0])
    assert "e_0.dst = e_0.src" in sql
    assert sql.startswith("SELECT e_0.src AS x, e_0.id AS l FROM edges e_0 ")


@pytest.mark.parametrize("text", [
    '(x, "citizenOf", c) AND (x{type="entrepreneur"}, "founded", o)',
    '(x, e, y) AND (y, e, x)',
    *(q for q in (J1, J2, Q_M3)),
])
def test_plan_reads_edges_only(text):
    """With no label condition on a node, ``nodes`` is never read and each
    edge variable is one ``edges`` alias."""
    for bgp in _bgps(text):
        sql = to_sql(bgp)
        edge_vars = {p.e.var for p in bgp.patterns}
        assert not re.search(r"\bnodes\b", sql), sql
        assert len(re.findall(r"\bedges e_\d+\b", sql)) == len(edge_vars), sql


def test_edge_self_joins_broadcast_all_but_the_first():
    """A BGP with k >= 2 edge aliases hints e_1 .. e_{k-1} (a one-edge BGP
    has no outer hint: see ``test_self_loop_binds_once``)."""
    (cycle,) = _bgps("(x, a, y) AND (y, b, z) AND (z, c, x)")
    assert to_sql(cycle).startswith("SELECT /*+ BROADCAST(e_1, e_2) */ e_0.src")


def _executed_plan(spark, sql: str) -> str:
    df = spark.sql(sql)
    df.collect()
    return df._jdf.queryExecution().executedPlan().toString()


def test_node_condition_plan_is_broadcast_semi_join(spark, graphs):
    """Automatic broadcast joins are off, yet the hint inside ``EXISTS``
    makes J1's type condition a broadcast semi-join."""
    assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
    _register(spark, graphs["yago"])
    plan = _executed_plan(spark, to_sql(_bgps(J1)[0]))
    assert re.search(r"BroadcastHashJoin .*LeftSemi", plan), plan
    assert "SortMergeJoin" not in plan, plan


def test_edge_self_join_plan_is_broadcast(spark, graphs):
    """The two-edge BGP of CDF ``Q_M3`` joins its edges by broadcast."""
    assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
    _register(spark, graphs["cdf"])
    (two_edges,) = [b for b in _bgps(Q_M3) if len(b.patterns) == 2]
    plan = _executed_plan(spark, to_sql(two_edges))
    assert re.search(r"BroadcastHashJoin .*Inner", plan), plan
    assert "SortMergeJoin" not in plan, plan


# ---- ~ patterns ------------------------------------------------------------

LIKE_LABELS = {1: "50%off", 3: "a_b", 4: "axb", 5: "c:\\dir", 6: "wow!", 7: "it's",
               8: "a?c", 9: "abc", 10: "[ab]c", 11: "ac"}
# pattern -> matching nodes (node 2 has no label, so it reads as "2")
LIKE_CASES = {
    "50%*": [1], "a_b": [3], "a*b": [3, 4], "*%*": [1], "*_*": [3],
    "*": list(range(1, 12)), "c:\\*": [5], "*\\dir": [5], "*!": [6],
    "!*": [], "it's": [7], "*'*": [7],
    "a?c": [8], "*?*": [8], "[ab]c": [10], "[!a]*": [],
}


@pytest.fixture(scope="module")
def like_graph():
    return LocalGraph(
        [Edge(0, 1, "r", 3), Edge(1, 3, "r", 4), Edge(2, 4, "r", 1),
         Edge(3, 5, "r", 6), Edge(4, 6, "r", 7), Edge(5, 2, "r", 7),
         Edge(6, 8, "r", 9), Edge(7, 9, "r", 10), Edge(8, 10, "r", 11),
         Edge(9, 11, "r", 8)],
        node_labels=LIKE_LABELS,
    )


@pytest.mark.parametrize("pattern,ids", LIKE_CASES.items())
def test_like_agrees_with_cond_matches(spark, like_graph, pattern, ids):
    """``*`` is the only wildcard: ``%``, ``_``, ``?``, ``[…]``, ``!``,
    ``\\`` and quotes match themselves on Spark, on DuckDB and in
    ``Cond.matches``."""
    g = like_graph
    cond = Cond("label", "~", pattern)
    assert [n for n in sorted(g.nodes) if cond.matches(g.label(n), g.types(n))] == ids

    _register(spark, g)
    bgp = parse(f'SELECT x WHERE (x{{label~"{pattern}"}}, e, y)').bgps[0]
    sql = to_sql(bgp, ["x", "e", "y"])
    assert_equivalent(spark.sql(sql), sql, **g.to_pandas())
    got = {tuple(r) for r in spark.sql(sql).collect()}
    assert got == bgp_embeddings(g, bgp, ["x", "e", "y"])
