"""BGP -> SQL compiler (step (A) of the §3 evaluation strategy).

Each Basic Graph Pattern compiles to one conjunctive SQL query over the
one-table graph encoding ``edges(id, src, label, dst, src_label,
dst_label, src_types, dst_types)``, the paper's ``graph(id, source,
edgeLabel, target)`` PostgreSQL table with each endpoint's label and
types on the edge row. The FROM clause holds one ``edges`` alias per edge
variable: a node variable is the endpoint column it first appears in
(``e_0.src``), and its conditions are predicates on that endpoint's
columns of the same row (``e_0.src_label``, ``e_0.src_types``). A
one-pattern BGP is therefore one filtered scan, with no join.

Spark runs with automatic broadcast joins off, so a BGP with k ≥ 2 edge
aliases broadcasts ``e_1`` to ``e_{k-1}`` against ``e_0`` by hint. No
broadcast side is larger than the graph, which the driver already holds
as a ``LocalGraph``.

The emitted SQL is deliberately engine-neutral: the same string runs on
Spark (Catalyst) and on DuckDB, which reads the hints as comments and
needs the ``size`` macro of :func:`repro.oracle.connect`; that is how
the oracle tests validate the compiler.
"""
from __future__ import annotations

from ..lang.ast import BGP, Cond

# LIKE escape character. Not ``\``: Spark unescapes backslashes inside
# string literals, so ``ESCAPE '\'`` does not parse there.
_ESC = "!"


def _sql_quote(v: str) -> str:
    """A string literal both engines read as ``v``. Spark unescapes
    backslashes in literals and DuckDB does not, so each one is spelled
    ``chr(92)``."""
    parts = ["'" + p.replace("'", "''") + "'" for p in v.split("\\")]
    if len(parts) == 1:
        return parts[0]
    return "(" + " || chr(92) || ".join(parts) + ")"


def _like(value: str) -> str:
    """Translate the paper's ~ patterns (``*`` is the only wildcard) to a
    SQL LIKE pattern and its ESCAPE clause. The escape character itself
    is escaped first, so the escapes added after it stay single."""
    for ch in (_ESC, "%", "_"):
        value = value.replace(ch, _ESC + ch)
    return f"{_sql_quote(value.replace('*', '%'))} ESCAPE '{_ESC}'"


def _cond_sql(col: str, c: Cond) -> str:
    if c.op == "~":
        return f"{col} LIKE {_like(c.value)}"
    return f"{col} {c.op} {_sql_quote(c.value)}"


def _node_cond_sql(end: str, c: Cond) -> str:
    """A condition on the node at the endpoint column ``end`` (``e_0.src``),
    on that endpoint's label or types columns of the same edge row. A type
    condition holds if some type of the node satisfies it."""
    if c.prop == "label":
        return _cond_sql(f"{end}_label", c)
    if c.prop != "type":
        raise ValueError(f"unsupported node property {c.prop!r}")
    if c.op == "=":
        return f"array_contains({end}_types, {_sql_quote(c.value)})"
    # No array length function has one name on both engines (Spark's
    # ``size``, DuckDB's ``len``): repro.oracle.connect defines ``size``.
    return f"size(filter({end}_types, t -> {_cond_sql('t', c)})) > 0"


def _edge_cond_sql(alias: str, c: Cond) -> str:
    if c.prop != "label":
        raise ValueError(f"unsupported edge property {c.prop!r}")
    return _cond_sql(f"{alias}.label", c)


def to_sql(bgp: BGP, project: list[str] | None = None) -> str:
    """Compile a BGP to SQL projecting ``project`` (default: all variables,
    node variables as node ids, edge variables as edge ids).

    Only ``edges`` is scanned. A node variable binds to the first
    edge-endpoint column it appears in (``e_0.src``); each later
    occurrence adds an equality (``e_1.src = e_0.src``), and each of its
    conditions, wherever it is written, tests the binding endpoint's
    columns.
    """
    e_alias: dict[str, str] = {}
    for p in bgp.patterns:
        e_alias.setdefault(p.e.var, f"e_{len(e_alias)}")
    node_col: dict[str, str] = {}
    where: list[str] = []

    def add(clause: str) -> None:
        if clause not in where:
            where.append(clause)

    for p in bgp.patterns:
        ea = e_alias[p.e.var]
        for c in p.e.conds:
            add(_edge_cond_sql(ea, c))
        for end, pred in (("src", p.s), ("dst", p.d)):
            col = f"{ea}.{end}"
            bound = node_col.setdefault(pred.var, col)
            if bound != col:
                add(f"{col} = {bound}")
            for c in pred.conds:
                add(_node_cond_sql(bound, c))

    if project is None:
        project = list(node_col) + list(e_alias)
    sel = []
    for v in project:
        if v in node_col:
            sel.append(f"{node_col[v]} AS {v}")
        elif v in e_alias:
            sel.append(f"{e_alias[v]}.id AS {v}")
        else:
            raise ValueError(f"unknown variable {v!r} in projection")
    # The first edge alias streams; every later one is broadcast.
    later = list(e_alias.values())[1:]
    hint = f"/*+ BROADCAST({', '.join(later)}) */ " if later else ""
    return (
        "SELECT " + hint + ", ".join(sel)
        + " FROM " + ", ".join(f"edges {a}" for a in e_alias.values())
        + (" WHERE " + " AND ".join(where) if where else "")
    )
