"""BGP compiler semantics against brute force, plan shape, and LIKE.

DuckDB runs the same SQL string as Spark, so it cannot catch a compiler
that emits the wrong query. Here Spark's result of ``to_sql`` is compared
with ``helpers.bgp_embeddings``, which enumerates edge assignments over
the ``LocalGraph`` and checks ``Cond.matches``.
"""
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eql.bgp import to_sql
from repro.experiments.cdf_eql import Q_M3
from repro.experiments.table1_yago import J1, J2
from repro.graph import generators as gen
from repro.graph.model import Edge, LocalGraph
from repro.graph.random_graphs import random_graph, yago_lite
from repro.lang import parse
from repro.lang.ast import BGP, Cond, EdgePattern, Pred
from repro.oracle import assert_equivalent

from .helpers import bgp_embeddings, group_job_count


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
    """Only ``edges`` is read, node conditions included, and each edge
    variable is one ``edges`` alias."""
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


def test_node_condition_plan_is_one_scan_in_one_job(spark, graphs):
    """J1's first BGP tests its type condition on the edge row: it plans
    with no join, as one ``LocalTableScan`` (Catalyst folds the filter into
    the local table), and the driver collects its rows with no Spark job."""
    sc = spark.sparkContext
    _register(spark, graphs["yago"])
    df = spark.sql(to_sql(_bgps(J1)[0]))
    sc.setJobGroup("bgp-one-scan", "J1's first BGP")
    try:
        assert len(df.collect()) > 0
    finally:
        sc._jsc.clearJobGroup()
    plan = df._jdf.queryExecution().executedPlan().toString()
    assert plan.startswith("LocalTableScan"), plan
    assert "Join" not in plan, plan
    assert group_job_count(sc, "bgp-one-scan") == 0


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


# ---- random node conditions ------------------------------------------------

# Labels, types and condition values: LIKE metacharacters, a quote, a
# backslash and the ESCAPE character, next to plain strings that order
# between them.
VALUES = ["a", "ab", "b", "a%b", "a_b", "it's", "c\\d", "x!y", "[a]"]
TYPES = ["a_b", "it's", "c\\d", "b"]
NODE_VARS = ["x", "y", "z"]


@st.composite
def _cond(draw, labels, types):
    """A label or type condition on a value drawn from ``labels`` or
    ``types``; a ``~`` pattern is the value with a slice of it, maybe
    empty, replaced by ``*``, or the value itself."""
    # Type conditions twice as often: they are the ones that read a list.
    prop = draw(st.sampled_from(["label", "type", "type"]))
    op = draw(st.sampled_from(["=", "<", "<=", "~"]))
    v = draw(labels if prop == "label" else types)
    if op == "~" and draw(st.booleans()):
        i = draw(st.integers(0, len(v)))
        v = v[:i] + "*" + v[draw(st.integers(i, len(v))):]
    return Cond(prop, op, v)


@st.composite
def graph_and_bgp(draw):
    """A graph of 1-3 nodes and 1-6 edges, self-loops allowed, whose nodes
    may have no label and 0-3 types, or no types in the whole graph; and a
    BGP of 1-2 patterns over three node variables, so a variable may sit
    at both ends of a pattern or in both patterns. Each node of a pattern
    has 0-1 conditions."""
    n = draw(st.integers(1, 3))
    node = st.integers(1, n)
    ends = draw(st.lists(st.tuples(node, node), min_size=1, max_size=6))
    labels = draw(st.lists(st.sampled_from([None, *VALUES]), min_size=n, max_size=n))
    types = {}
    if draw(st.integers(0, 3)):  # one graph in four has no types
        types = dict(enumerate(draw(st.lists(
            st.frozensets(st.sampled_from(TYPES), max_size=3), min_size=n, max_size=n,
        )), start=1))
    g = LocalGraph(
        [Edge(i, s, "r", d) for i, (s, d) in enumerate(ends)],
        {v: lbl for v, lbl in enumerate(labels, start=1) if lbl is not None},
        types,
    )
    # Half of the label values are held by the graph, so that conditions
    # often match.
    held = st.sampled_from(sorted(g.label(v) for v in g.nodes))
    cond = _cond(held | st.sampled_from(VALUES), st.sampled_from(TYPES))

    def pred(var: str) -> Pred:
        return Pred(var, tuple(draw(st.lists(cond, max_size=1))))

    s, d = draw(st.sampled_from(NODE_VARS)), draw(st.sampled_from(NODE_VARS))
    patterns = [EdgePattern(pred(s), Pred("e0"), pred(d))]
    if draw(st.booleans()):
        # A BGP is variable-connected: the second pattern shares a node.
        shared, other = draw(st.sampled_from([s, d])), draw(st.sampled_from(NODE_VARS))
        s2, d2 = (shared, other) if draw(st.booleans()) else (other, shared)
        patterns.append(EdgePattern(pred(s2), Pred("e1"), pred(d2)))
    return g, BGP(tuple(patterns))


@given(graph_and_bgp())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_node_conditions_match_brute_force_and_duckdb(spark, gb):
    """Label and type conditions, tested on the binding endpoint's columns,
    give Spark the rows of ``bgp_embeddings``, and DuckDB the same rows."""
    g, bgp = gb
    project = bgp.variables()
    sql = to_sql(bgp, project)
    _register(spark, g)
    got = {tuple(r) for r in spark.sql(sql).collect()}
    assert got == bgp_embeddings(g, bgp, project), sql
    assert_equivalent(spark.sql(sql), sql, **g.to_pandas())
