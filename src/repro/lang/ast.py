"""EQL abstract syntax (§2): predicates, edge patterns, BGPs, CTPs, queries.

A predicate (Def. 2.2) is a conjunction of conditions ``p(v) op c`` over a
single variable, where ``p`` is a property (here: ``label`` for nodes and
edges, ``type`` for nodes) and ``op`` in {=, <, <=, ~} (``~`` is SQL LIKE
with ``*`` wildcards). The Def. 2.2 shorthand — a bare constant meaning
``label(v) = c`` — is supported via :func:`const`; the parser gives each
constant a fresh variable that its query does not use.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from ..core.filters import CTPFilters


def _like_regex(pattern: str) -> str:
    """A ``~`` pattern as a regex: ``*`` matches any string, every other
    character only itself (as SQL LIKE reads it in ``eql.bgp._like``)."""
    return "(?s)" + ".*".join(re.escape(p) for p in pattern.split("*"))


@dataclass(frozen=True)
class Cond:
    """One condition ``prop(v) op value``."""

    prop: str          # "label" | "type"
    op: str            # "=" | "<" | "<=" | "~"
    value: str

    def matches(self, label: str, types: frozenset[str]) -> bool:
        if self.prop == "label":
            lhs_values = [label]
        elif self.prop == "type":
            lhs_values = sorted(types)
        else:
            raise ValueError(f"unknown property {self.prop!r}")
        for lhs in lhs_values:
            if self.op == "=" and lhs == self.value:
                return True
            if self.op == "<" and lhs < self.value:
                return True
            if self.op == "<=" and lhs <= self.value:
                return True
            if self.op == "~" and re.fullmatch(_like_regex(self.value), lhs):
                return True
        return False


@dataclass(frozen=True)
class Pred:
    """A predicate over one variable (possibly with zero conditions)."""

    var: str
    conds: tuple[Cond, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.conds

    def matches(self, label: str, types: frozenset[str]) -> bool:
        """True iff a value with this label and these types satisfies
        every condition."""
        return all(c.matches(label, types) for c in self.conds)


def var(name: str) -> Pred:
    return Pred(name)


def const(label: str, v: str) -> Pred:
    """The Def. 2.2 shorthand: a constant denotes label(v) = constant."""
    return Pred(v, (Cond("label", "=", label),))


@dataclass(frozen=True)
class EdgePattern:
    """(p1, p2, p3): predicates over source node, edge, target node."""

    s: Pred
    e: Pred
    d: Pred


def connected_groups(patterns) -> list[list[EdgePattern]]:
    """The edge patterns in maximal groups connected through shared
    variables (Def. 2.4). Each group keeps the order in which its patterns
    joined it; a pattern that links groups merges the later ones into the
    first."""
    groups: list[list[EdgePattern]] = []
    group_vars: list[set[str]] = []
    for p in patterns:
        vs = {p.s.var, p.e.var, p.d.var}
        hits = [i for i, gv in enumerate(group_vars) if gv & vs]
        if not hits:
            groups.append([p])
            group_vars.append(vs)
            continue
        first = hits[0]
        groups[first].append(p)
        group_vars[first] |= vs
        for i in reversed(hits[1:]):
            groups[first].extend(groups.pop(i))
            group_vars[first] |= group_vars.pop(i)
    return groups


@dataclass(frozen=True)
class BGP:
    """A connected set of edge patterns (Def. 2.4)."""

    patterns: tuple[EdgePattern, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("BGP needs at least one edge pattern")
        if len(connected_groups(self.patterns)) > 1:
            raise ValueError("BGP edge patterns are not connected")

    def variables(self) -> list[str]:
        out: list[str] = []
        for p in self.patterns:
            for pred in (p.s, p.e, p.d):
                if pred.var not in out:
                    out.append(pred.var)
        return out


@dataclass(frozen=True)
class CTP:
    """(g_1, .., g_m, tree_var): the tree_var is the underlined variable."""

    preds: tuple[Pred, ...]
    tree_var: str
    filters: CTPFilters = CTPFilters()

    def __post_init__(self) -> None:
        if len(self.preds) < 2:
            raise ValueError("CTP needs m >= 2 seed predicates")
        names = [p.var for p in self.preds] + [self.tree_var]
        if len(set(names)) != len(names):
            raise ValueError("CTP variables must be pairwise distinct")

    @property
    def m(self) -> int:
        return len(self.preds)


@dataclass(frozen=True)
class Query:
    """A core query (Def. 2.6): head variables, BGPs and CTPs."""

    head: tuple[str, ...]
    bgps: tuple[BGP, ...] = ()
    ctps: tuple[CTP, ...] = ()

    def __post_init__(self) -> None:
        if not self.head:
            raise ValueError("query head must name at least one variable")
        if not self.bgps and not self.ctps:
            raise ValueError("query body must contain at least one pattern")
        tree_vars = [c.tree_var for c in self.ctps]
        if len(set(tree_vars)) != len(tree_vars):
            raise ValueError("each CTP tree variable must appear exactly once")
        simple = set(self.simple_variables())
        for w in tree_vars:
            if w in simple:
                raise ValueError(
                    f"tree variable {w!r} is also a node or edge variable"
                )
        body = simple | set(tree_vars)
        for h in self.head:
            if h not in body:
                raise ValueError(f"head variable {h!r} not in body")

    def simple_variables(self) -> list[str]:
        out: list[str] = []
        for b in self.bgps:
            for v in b.variables():
                if v not in out:
                    out.append(v)
        for c in self.ctps:
            for p in c.preds:
                if p.var not in out:
                    out.append(p.var)
        return out
