"""BGP -> SQL compiler (step (A) of the §3 evaluation strategy).

Each Basic Graph Pattern compiles to one conjunctive SQL query over the
relational graph encoding ``edges(id, src, label, dst)``, ``nodes(id,
label)``, ``types(id, type)`` — mirroring the paper's
``graph(id, source, edgeLabel, target)`` PostgreSQL table. The FROM clause
holds only ``edges``, one alias per edge variable: a node variable is the
endpoint column it first appears in, and its conditions are semi-joins
(``EXISTS``) on ``types`` or ``nodes``. The emitted SQL is deliberately
engine-neutral: the same string runs on Spark (Catalyst) and on DuckDB,
which is how the oracle tests validate the compiler.
"""
from __future__ import annotations

from ..lang.ast import BGP, Cond, Pred

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


def _node_cond_sql(node_id: str, c: Cond) -> str:
    """A condition on the node whose id is the column ``node_id``, as a
    semi-join on ``types`` or ``nodes``."""
    if c.prop == "label":
        table, alias, col = "nodes", "n", "n.label"
    elif c.prop == "type":
        table, alias, col = "types", "t", "t.type"
    else:
        raise ValueError(f"unsupported node property {c.prop!r}")
    return (
        f"EXISTS (SELECT 1 FROM {table} {alias} "
        f"WHERE {alias}.id = {node_id} AND {_cond_sql(col, c)})"
    )


def _edge_cond_sql(alias: str, c: Cond) -> str:
    if c.prop != "label":
        raise ValueError(f"unsupported edge property {c.prop!r}")
    return _cond_sql(f"{alias}.label", c)


def pred_sql(pred: Pred) -> str:
    """SQL for the ids of the nodes satisfying ``pred``: one scan of
    ``nodes``, label conditions tested in place, type conditions as
    semi-joins on ``types``."""
    conds = [
        _cond_sql("n.label", c) if c.prop == "label" else _node_cond_sql("n.id", c)
        for c in pred.conds
    ]
    return "SELECT n.id FROM nodes n" + (
        " WHERE " + " AND ".join(conds) if conds else ""
    )


def to_sql(bgp: BGP, project: list[str] | None = None) -> str:
    """Compile a BGP to SQL projecting ``project`` (default: all variables,
    node variables as node ids, edge variables as edge ids).

    Only ``edges`` is scanned. A node variable binds to the first
    edge-endpoint column it appears in (``e_0.src``); each later
    occurrence adds an equality (``e_1.src = e_0.src``). This relies on
    the invariant of ``LocalGraph.to_spark``: every edge endpoint is in
    ``nodes`` exactly once (``nodes`` holds the unique ids of adjacency,
    labels and types), so a join of an endpoint with ``nodes`` neither
    drops nor multiplies rows and is left out.
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
    return (
        "SELECT " + ", ".join(sel)
        + " FROM " + ", ".join(f"edges {a}" for a in e_alias.values())
        + (" WHERE " + " AND ".join(where) if where else "")
    )
