"""Tests for the EQL AST and parser (§2 syntax)."""
from dataclasses import fields

import pytest

from repro.core.filters import CTPFilters
from repro.core.scoring import size_score
from repro.lang import BGP, CTP, Cond, EdgePattern, ParseError, Pred, Query, parse
from repro.lang.ast import const, var
from repro.lang.parser import _FILTERS


# ---- AST construction ----------------------------------------------------

def test_pred_shorthand_const():
    p = const("Alice", "a")
    assert p == Pred("a", (Cond("label", "=", "Alice"),))


def test_cond_matches_label_eq():
    c = Cond("label", "=", "Alice")
    assert c.matches("Alice", frozenset())
    assert not c.matches("Bob", frozenset())


def test_cond_matches_like():
    c = Cond("label", "~", "*lice")
    assert c.matches("Alice", frozenset())
    assert not c.matches("Alicia", frozenset())


def test_cond_matches_type():
    c = Cond("type", "=", "entrepreneur")
    assert c.matches("x", frozenset({"entrepreneur", "person"}))
    assert not c.matches("x", frozenset({"person"}))


def test_cond_lt():
    assert Cond("label", "<", "b").matches("a", frozenset())
    assert not Cond("label", "<", "a").matches("a", frozenset())
    assert Cond("label", "<=", "a").matches("a", frozenset())


def test_bgp_requires_connected_patterns():
    with pytest.raises(ValueError):
        BGP((
            EdgePattern(var("a"), var("e1"), var("b")),
            EdgePattern(var("c"), var("e2"), var("d")),
        ))


def test_bgp_connected_ok():
    b = BGP((
        EdgePattern(var("a"), var("e1"), var("b")),
        EdgePattern(var("b"), var("e2"), var("c")),
    ))
    assert b.variables() == ["a", "e1", "b", "e2", "c"]


def test_ctp_m_and_distinct_vars():
    c = CTP((var("x"), var("y")), "w")
    assert c.m == 2
    with pytest.raises(ValueError):
        CTP((var("x"), var("x")), "w")
    with pytest.raises(ValueError):
        CTP((var("x"),), "w")


def test_query_validations():
    ctp = CTP((var("x"), var("y")), "w")
    q = Query(("x", "w"), (), (ctp,))
    assert q.simple_variables() == ["x", "y"]
    with pytest.raises(ValueError, match="not in body"):
        Query(("zz",), (), (ctp,))
    with pytest.raises(ValueError, match="body must contain"):
        Query(("x",), (), ())
    with pytest.raises(ValueError, match="head must name"):
        Query((), (), (ctp,))
    bgp = BGP((EdgePattern(var("x"), var("e"), var("y")),))
    with pytest.raises(ValueError, match="head must name"):
        Query((), (bgp,))
    # A tree variable binds trees, so it names no node or edge: not one of
    # a BGP, nor a seed variable of another CTP.
    w_edge = BGP((EdgePattern(var("x"), var("w"), var("y")),))
    with pytest.raises(ValueError, match="tree variable 'w' is also a node or edge"):
        Query(("w",), (w_edge,), (ctp,))
    w_seed = CTP((var("w"), var("y")), "v")
    with pytest.raises(ValueError, match="tree variable 'w' is also a node or edge"):
        Query(("w",), (), (ctp, w_seed))


def test_query_duplicate_tree_var_rejected():
    c1 = CTP((var("x"), var("y")), "w")
    c2 = CTP((var("a"), var("b")), "w")
    with pytest.raises(ValueError):
        Query(("x",), (), (c1, c2))


# ---- parser --------------------------------------------------------------

def test_parse_q1_like():
    q = parse('''
        SELECT x, y, z, w
        WHERE (x{type="entrepreneur"}, "citizenOf", "USA")
        AND (y{type="entrepreneur"}, "citizenOf", "France")
        AND (z{type="politician"}, "citizenOf", "France")
        AND CTP(x, y, z, *w)
    ''')
    assert q.head == ("x", "y", "z", "w")
    assert len(q.bgps) == 3 and len(q.ctps) == 1
    assert q.ctps[0].m == 3 and q.ctps[0].tree_var == "w"


def test_parse_groups_connected_patterns_into_one_bgp():
    for body, n_patterns in (
        ('(x, "a", y) AND (y, "b", z)', 2),
        # The end patterns connect only through the middle one, written last.
        ('(x, "a", y) AND (z, "c", v) AND (y, "b", z)', 3),
    ):
        q = parse(f"SELECT x WHERE {body} AND CTP(x, z, *w)")
        assert len(q.bgps) == 1
        assert len(q.bgps[0].patterns) == n_patterns


def test_parse_filters():
    q = parse('''
        SELECT w
        WHERE CTP("A", "B", *w) UNI LABEL {up, "down"} MAX 5
              SCORE size TOP 3 TIMEOUT 2.5
    ''')
    f = q.ctps[0].filters
    assert f.uni and f.labels == frozenset({"up", "down"})
    assert f.max_edges == 5 and f.top_k == 3 and f.timeout_s == 2.5


def test_parse_limit_and_score():
    q = parse('SELECT w WHERE CTP("A", "B", *w) SCORE size LIMIT 1')
    f = q.ctps[0].filters
    assert f.score is size_score and f.limit == 1


def test_filter_keywords_name_the_ctpfilters_fields():
    """Each filter keyword sets a field of the record the search takes,
    and every field has a keyword but the testing budget ``max_built``."""
    named = [field for field, _ in _FILTERS.values()]
    assert sorted(named) == sorted(
        f.name for f in fields(CTPFilters) if f.name != "max_built"
    )


@pytest.mark.parametrize("filters, kw", [
    ("MAX x", "MAX"), ("LIMIT 2.5", "LIMIT"), ("TIMEOUT soon", "TIMEOUT"),
    ("TOP", "TOP"), ("SCORE 5", "SCORE"), ("LABEL {up} LABEL {down}", "LABEL"),
    ("MAX 2 UNI MAX 3", "MAX"),
])
def test_malformed_filter_is_a_parse_error_naming_it(filters, kw):
    """A filter without its value, with a value of the wrong kind, or
    given twice in one CTP is a ParseError that names the keyword."""
    with pytest.raises(ParseError, match=kw):
        parse(f'SELECT w WHERE CTP("A", "B", *w) {filters}')


def test_each_ctp_takes_its_own_filters():
    q = parse('SELECT w, v WHERE CTP("A", "B", *w) MAX 2 AND CTP("A", "C", *v) MAX 3')
    assert [c.filters.max_edges for c in q.ctps] == [2, 3]


def test_parse_label_pattern_pred():
    q = parse('SELECT x WHERE (x{label~"*lice"}, "knows", y) AND CTP(x, y, *w)')
    (cond,) = q.bgps[0].patterns[0].s.conds
    assert cond.op == "~" and cond.value == "*lice"


def test_parse_constants_get_fresh_vars():
    q = parse('SELECT w WHERE CTP("A", "B", *w)')
    p1, p2 = q.ctps[0].preds
    assert p1.var != p2.var
    assert p1.conds[0].value == "A"


def test_parse_is_deterministic():
    """Constants are numbered per query, so a text parses to equal queries."""
    text = 'SELECT w WHERE ("A", e, x) AND CTP(x, "B", *w)'
    assert parse(text) == parse(text)


def test_parse_constant_never_captures_a_query_variable():
    """A constant's fresh variable skips every name the query uses: a
    query that names the variable after the last one a constant got keeps
    it for itself, and its pattern is not a self-loop."""
    last = parse('SELECT w WHERE CTP("A", "B", *w)').ctps[0].preds[1].var
    v = f"_v{int(last[2:]) + 1}"
    (p,) = parse(f'SELECT {v} WHERE ("A", e, {v})').bgps[0].patterns
    assert p.d == Pred(v)
    assert p.s.var != v and p.s.conds == (Cond("label", "=", "A"),)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("WHERE (x, y, z)")
    with pytest.raises(ParseError):
        parse("SELECT x WHERE (x, y)")  # malformed triple
    with pytest.raises(ParseError):
        parse("SELECT x WHERE CTP(x, y)")  # no tree var


def test_parse_two_ctps():
    q = parse('''
        SELECT x, w1, w2
        WHERE (x, "knows", y)
        AND CTP(x, "B", *w1) AND CTP(y, "C", *w2) MAX 4
    ''')
    assert len(q.ctps) == 2
    assert q.ctps[0].filters.max_edges is None
    assert q.ctps[1].filters.max_edges == 4
