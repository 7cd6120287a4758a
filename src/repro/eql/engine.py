"""EQL query evaluation (§3): Spark runs the BGPs, the driver the rest.

(A) each BGP compiles to SQL and is evaluated by Spark — the "existing
    conjunctive graph query engine". Its SQL runs exactly once, as one
    row collect of the columns the query needs (head ∪ CTP seed
    variables), projected in the SQL and de-duplicated on the driver. A
    BGP that binds none of them is only tested for emptiness. The SQL
    reads one table, whose edge rows carry their endpoints' labels and
    types, so a one-pattern BGP is one filtered scan, which Catalyst
    folds into a local table that the driver collects with no Spark job;
    edge self-joins are broadcast by hint. A query's BGPs are collected
    one after the other on the caller's thread. Spark runs nothing after
    this;
(B) for each CTP, each seed set holds the nodes that satisfy its
    predicate (``Pred.matches`` on the ``LocalGraph``) among those a BGP
    binds to the variable, or among all nodes if none does; a bare
    unbound variable is the N sentinel. Then the chosen §4 algorithm
    runs with filters pushed;
(C) the CTP tables and the BGP frames, pandas frames on the driver, are
    natural-joined, projected on the head and de-duplicated. One
    ``createDataFrame``, coalesced to one partition, hands the answer to
    Spark. A tree variable ``w`` is bound as ``array<long>`` of its sorted
    edge ids (``size(w)`` is the tree's size). Nothing is cached.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .. import core
from ..core.engine import ALL_NODES, SearchOutcome, SearchStats, is_all_nodes
from ..core.filters import CTPFilters
from ..core.tree import ResultTree
from ..graph.model import LocalGraph
from ..lang.ast import BGP, CTP, Pred, Query
from .bgp import to_sql


@dataclass
class EQLReport:
    """Evaluation artifacts: per CTP its table (a pandas frame), seed sets
    and search outcome, plus the answer of step (C). ``result`` is a Spark
    DataFrame of one partition made from the driver-side answer, with ``w``
    an ``array<long>`` of sorted edge ids (``size(w)`` is the tree's size);
    its schema is the same whether or not it is empty."""

    ctp_tables: list[pd.DataFrame] = field(default_factory=list)
    seed_sets: list[list] = field(default_factory=list)
    ctp_outcomes: list = field(default_factory=list)
    result: DataFrame | None = None


class EQLEngine:
    """Evaluates EQL queries over one graph on a shared SparkSession."""

    def __init__(self, spark: SparkSession, graph: LocalGraph) -> None:
        self.spark = spark
        self.graph = graph
        self.dfs = graph.to_spark(spark)
        # Needed before any evaluate: perfbench's eql_yago oracle runs to_sql's SQL.
        self.dfs["edges"].createOrReplaceTempView("edges")

    # ---- step (B1): seed sets -------------------------------------------
    def _seed_set(self, pred: Pred, bound: list[pd.DataFrame]):
        """The sorted nodes that the BGP frames bind to ``pred.var`` (all
        graph nodes if none binds it) and that satisfy ``pred``; the N
        sentinel for a bare unbound variable."""
        g = self.graph
        nodes = next(
            (set(pdf[pred.var].tolist()) for pdf in bound if pred.var in pdf.columns),
            None,
        )
        if nodes is None:
            if pred.is_empty:
                return ALL_NODES
            nodes = g.nodes
        return sorted(n for n in nodes if pred.matches(g.label(n), g.types(n)))

    # ---- step (B2): CTP table -------------------------------------------
    def _ctp_table(
        self,
        ctp: CTP,
        seed_sets: list,
        results: list[ResultTree],
        scored: bool,
    ) -> pd.DataFrame:
        """The CTP results as a table, built column by column: a concrete
        seed variable binds to the result's seed, an N variable (§4.9: any
        node matches an N set) to each node of the tree, one row per node,
        so two N variables give the product of their rows; ``w`` holds the
        tuple of the tree's sorted edge ids, and ``w_score`` the score of a
        scored CTP. The dtypes are fixed, so an empty table joins like a
        full one."""
        w = ctp.tree_var
        n_vars = [p.var for p, s in zip(ctp.preds, seed_sets) if is_all_nodes(s)]
        cols = {
            p.var: [sorted(rt.nodes) for rt in results] if p.var in n_vars
            else [rt.seed_of(i) for rt in results]
            for i, p in enumerate(ctp.preds)
        }
        cols[w] = [tuple(sorted(rt.edges)) for rt in results]
        dtypes = {p.var: "int64" for p in ctp.preds}
        if scored:
            cols[f"{w}_score"] = [rt.score for rt in results]
            dtypes[f"{w}_score"] = "float64"
        table = pd.DataFrame(cols)
        # One variable at a time: exploding several columns in one call
        # would zip their lists instead of taking their product.
        for v in n_vars:
            table = table.explode(v, ignore_index=True)
        return table.astype(dtypes)

    # ---- step (A): one BGP ----------------------------------------------
    def _bgp_frame(self, bgp: BGP, needed: set[str]) -> pd.DataFrame | bool:
        """The distinct embeddings of ``bgp`` on the ``needed`` variables it
        binds, as one row collect; for a BGP that binds none of them,
        whether it has no embeddings. A one-pattern BGP plans as a local
        table, whose rows the driver collects with no Spark job; no
        workload or artefact collects a frame of over 2,048 rows."""
        keep = [v for v in bgp.variables() if v in needed]
        if not keep:
            return self.spark.sql(to_sql(bgp)).isEmpty()
        rows = self.spark.sql(to_sql(bgp, project=keep)).collect()
        # int64 even when empty, so it merges with the CTP tables.
        return pd.DataFrame(rows, columns=keep).drop_duplicates().astype("int64")

    # ---- full evaluation -------------------------------------------------
    def evaluate(
        self,
        query: Query,
        *,
        algo: str = "MoLESP",
        default_filters: CTPFilters = CTPFilters(),
        multi_queue: bool = False,
    ) -> EQLReport:
        """Evaluate ``query`` by the §3 strategy: (A) its BGPs on Spark,
        (B) each CTP searched in memory from the seed sets they bind, (C)
        the natural join of the CTP tables and BGP frames, projected on
        the head.

        ``algo`` is a key of :data:`repro.core.ALGORITHMS`. MoLESP, the
        default, can miss results that GAM returns for a CTP with an N seed
        set and two or more concrete ones (DESIGN.md §6).
        ``default_filters`` are the filters of every CTP; each filter that
        the CTP's own clause sets overrides them (:meth:`CTPFilters.over`).
        ``multi_queue`` is passed to every CTP search (§4.9); the BFT
        algorithms reject it.

        The :class:`EQLReport` holds, per CTP in query order, its seed sets,
        its search outcome and its table, and the answer as ``result``.
        """
        report = EQLReport()
        # Re-register this engine's view: several engines (one per graph)
        # may coexist on the shared session, and the compiled SQL refers
        # to the fixed name edges. A query without BGPs reads no table.
        if query.bgps:
            self.dfs["edges"].createOrReplaceTempView("edges")
        # (A) BGP evaluation on Catalyst, one BGP after the other. Def.
        # 2.10 is set-based, so each BGP is projected onto the variables
        # that can influence the output (head ∪ CTP seed variables) and
        # de-duplicated: unused BGP variables would only multiply the join.
        # BGPs are maximal variable-connected groups, so no join key is lost.
        needed = set(query.head)
        for c in query.ctps:
            needed.update(p.var for p in c.preds)
        outs = [self._bgp_frame(b, needed) for b in query.bgps]
        bound = [o for o in outs if isinstance(o, pd.DataFrame)]
        # A fully-projected-away BGP still acts as a boolean guard: no
        # embeddings => empty result.
        guard_empty = any(o is True for o in outs)

        # (B) CTP evaluation.
        algo_fn = core.ALGORITHMS[algo]
        for ctp in query.ctps:
            seed_sets = [self._seed_set(p, bound) for p in ctp.preds]
            report.seed_sets.append(seed_sets)
            filters = ctp.filters.over(default_filters)
            if any(s == [] for s in seed_sets):
                # An empty concrete seed set has no connecting tree; the
                # search engines reject it, so it is not run.
                outcome = SearchOutcome([], SearchStats(), "exhausted")
            else:
                outcome = algo_fn(
                    self.graph, seed_sets, filters=filters, multi_queue=multi_queue
                )
            report.ctp_outcomes.append(outcome)
            report.ctp_tables.append(
                self._ctp_table(
                    ctp, seed_sets, outcome.results, filters.score is not None
                )
            )

        # (C) natural join from the CTP tables, head projection, then
        # de-duplication: Def. 2.10 is set-based, and columns outside the
        # head would otherwise turn into duplicate answers.
        joined = _natural_join(report.ctp_tables + bound)
        tree_vars = {c.tree_var for c in query.ctps}
        schema: dict[str, str] = {}
        for h in query.head:
            if h in tree_vars:
                schema[h] = "array<long>"
                if f"{h}_score" in joined.columns:
                    schema[f"{h}_score"] = "double"
            else:
                schema[h] = "long"
        answer = joined[list(schema)].drop_duplicates()
        if guard_empty:
            answer = answer.iloc[:0]
        # One partition: the answer is already on the driver, and a count
        # of it is then one Spark job instead of two.
        report.result = self.spark.createDataFrame(
            answer, schema=", ".join(f"{c} {t}" for c, t in schema.items())
        ).coalesce(1)
        return report


def _natural_join(frames: list[pd.DataFrame]) -> pd.DataFrame:
    """Natural join of ``frames``, starting from the first. Each step joins
    the first remaining frame that shares a column with the result so far;
    a frame is cross-joined only when no remaining frame shares one. Two
    frames that share no column may be linked through a third, and joining
    them first builds their whole cross product: the two BGP frames of CDF
    ``Q_M3`` (``tl`` and ``bl1, bl2``) give 2,048 × 1,024 rows before the
    CTP table filters them."""
    joined, rest = frames[0], frames[1:]
    while rest:
        cols = set(joined.columns)
        f = rest.pop(next((i for i, f in enumerate(rest) if cols & set(f.columns)), 0))
        shared = [c for c in f.columns if c in cols]
        joined = joined.merge(f, on=shared) if shared else joined.merge(f, how="cross")
    return joined
