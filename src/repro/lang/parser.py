"""Text surface syntax for EQL — a small parser so queries can be written
the way the paper writes them (datalog-style bodies with CTPs).

Grammar (whitespace/newline insensitive)::

    query   := SELECT var (, var)* WHERE clause (AND clause)*
    clause  := '(' pred ',' pred ',' pred ')'                 -- edge pattern
             | CTP '(' pred (',' pred)+ ',' '*'var ')' filter*
    filter  := UNI | LABEL '{' name (',' name)* '}' | MAX int    -- each at
             | TOP int | LIMIT int | TIMEOUT float | SCORE name  -- most once
    pred    := '"' constant '"'                               -- label(v)=c
             | var
             | var '{' cond (',' cond)* '}'
    cond    := prop op '"' value '"'    with prop in {label, type},
                                        op in {=, ~, <, <=}

A CTP's filters are read into one ``CTPFilters``, the record the search
takes: SCORE names a function of ``core.scoring.SCORES``, and TOP needs
SCORE (§2: ``SCORE σ [TOP k]``).

The underlined CTP tree variable is written ``*w``. Consecutive edge
patterns that share variables are grouped into maximal connected BGPs
(Def. 2.4), mirroring how the paper draws query bodies. Each constant
binds a fresh variable ``_v0``, ``_v1``, ..., numbered per query and
skipping every name the query uses, so parsing a text twice gives equal
queries.
"""
from __future__ import annotations

import itertools
import re

from ..core.filters import CTPFilters
from ..core.scoring import SCORES
from .ast import BGP, CTP, Cond, EdgePattern, Pred, Query, connected_groups, const

_TOKEN = re.compile(
    r"""
    (?P<str>"[^"]*")
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|=|~|<)
  | (?P<punct>[(){},*])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

class ParseError(ValueError):
    pass


class _Tokens:
    def __init__(self, text: str) -> None:
        self.toks: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ParseError(f"cannot tokenize at: {text[pos:pos+20]!r}")
            pos = m.end()
            kind = m.lastgroup
            if kind != "ws":
                self.toks.append((kind, m.group()))
        self.i = 0
        names = {v for k, v in self.toks if k == "name"}
        self.fresh = (f"_v{i}" for i in itertools.count() if f"_v{i}" not in names)

    def peek(self) -> tuple[str, str] | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> tuple[str, str]:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of query")
        self.i += 1
        return t

    def expect(self, value: str) -> None:
        k, v = self.next()
        if v.upper() != value and v != value:
            raise ParseError(f"expected {value!r}, got {v!r}")

    def at_keyword(self, kw: str) -> bool:
        t = self.peek()
        return t is not None and t[0] == "name" and t[1].upper() == kw


def _braced(ts: _Tokens, item) -> list:
    """``{ item (, item)* }``: the values that ``item(ts)`` reads."""
    ts.expect("{")
    items = [item(ts)]
    while (sep := ts.next()[1]) == ",":
        items.append(item(ts))
    if sep != "}":
        raise ParseError(f"expected , or }}, got {sep!r}")
    return items


def _cond(ts: _Tokens) -> Cond:
    _, prop = ts.next()
    if prop not in ("label", "type"):
        raise ParseError(f"unknown property {prop!r}")
    _, op = ts.next()
    if op not in ("=", "~", "<", "<="):
        raise ParseError(f"unknown operator {op!r}")
    k, val = ts.next()
    if k != "str":
        raise ParseError(f"condition value must be quoted: {val!r}")
    return Cond(prop, op, val[1:-1])


def _parse_pred(ts: _Tokens) -> Pred:
    kind, v = ts.next()
    if kind == "str":
        return const(v[1:-1], next(ts.fresh))
    if kind != "name":
        raise ParseError(f"expected predicate, got {v!r}")
    t = ts.peek()
    if t is not None and t[1] == "{":
        return Pred(v, tuple(_braced(ts, _cond)))
    return Pred(v)


def _label(ts: _Tokens) -> str:
    k, v = ts.next()
    if k not in ("str", "name"):
        raise ParseError(f"bad label {v!r}")
    return v[1:-1] if k == "str" else v


def _token(kind: str, convert=str):
    """A filter value reader: one token of ``kind``, converted."""
    def read(ts: _Tokens):
        k, v = ts.next()
        if k != kind:
            raise ParseError(f"expected a {kind} token, got {v!r}")
        return convert(v)
    return read


def _score(name: str):
    """The score function of ``SCORE name``."""
    if name not in SCORES:
        raise ParseError(f"unknown score {name!r}; known: " + ", ".join(SCORES))
    return SCORES[name]


# Each CTP filter keyword: the CTPFilters field it sets, and its reader.
_FILTERS = {
    "UNI": ("uni", lambda ts: True),
    "LABEL": ("labels", lambda ts: frozenset(_braced(ts, _label))),
    "MAX": ("max_edges", _token("num", int)),
    "TOP": ("top_k", _token("num", int)),
    "LIMIT": ("limit", _token("num", int)),
    "TIMEOUT": ("timeout_s", _token("num", float)),
    "SCORE": ("score", _token("name", _score)),
}


def _parse_ctp_filters(ts: _Tokens) -> CTPFilters:
    spec: dict = {}
    while (t := ts.peek()) and t[0] == "name" and t[1].upper() in _FILTERS:
        kw = ts.next()[1].upper()
        field, read = _FILTERS[kw]
        if field in spec:
            raise ParseError(f"{kw} given twice in one CTP")
        try:
            spec[field] = read(ts)
        except ValueError as e:  # ParseError included
            raise ParseError(f"{kw}: {e}") from None
    try:
        return CTPFilters(**spec)
    except ValueError as e:  # TOP without SCORE
        raise ParseError(str(e)) from None


def parse(text: str) -> Query:
    ts = _Tokens(text)
    ts.expect("SELECT")
    head = []
    while True:
        k, v = ts.next()
        if k != "name":
            raise ParseError(f"bad head variable {v!r}")
        head.append(v)
        t = ts.peek()
        if t is not None and t[1] == ",":
            ts.next()
            continue
        break
    ts.expect("WHERE")
    edge_patterns: list[EdgePattern] = []
    ctps: list[CTP] = []
    while True:
        if ts.at_keyword("CTP"):
            ts.next()
            ts.expect("(")
            preds: list[Pred] = []
            while True:
                t = ts.peek()
                if t is not None and t[1] == "*":
                    ts.next()
                    k, v = ts.next()
                    if k != "name":
                        raise ParseError("tree variable expected after *")
                    tree_var = v
                    ts.expect(")")
                    break
                preds.append(_parse_pred(ts))
                _, sep = ts.next()
                if sep != ",":
                    raise ParseError(f"expected , in CTP, got {sep!r}")
            ctps.append(CTP(tuple(preds), tree_var, _parse_ctp_filters(ts)))
        else:
            ts.expect("(")
            p1 = _parse_pred(ts)
            ts.expect(",")
            p2 = _parse_pred(ts)
            ts.expect(",")
            p3 = _parse_pred(ts)
            ts.expect(")")
            edge_patterns.append(EdgePattern(p1, p2, p3))
        t = ts.peek()
        if t is None:
            break
        ts.expect("AND")
    bgps = tuple(BGP(tuple(g)) for g in connected_groups(edge_patterns))
    return Query(tuple(head), bgps, tuple(ctps))
