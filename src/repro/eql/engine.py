"""EQL query evaluation (§3): BGPs on Catalyst, CTPs via §4 search, final
natural join + head projection on Spark.

Steps, following the paper exactly:

(A) each BGP compiles to SQL and is evaluated by Spark — the "existing
    conjunctive graph query engine". Its SQL runs exactly once, as one
    Arrow collect of the columns the query needs (head ∪ CTP seed
    variables), de-duplicated on the driver. A BGP that binds none of
    them is only tested for emptiness;
(B) for each CTP, seed sets are derived (from those driver copies where
    the variable is shared, from the node tables via the predicate
    otherwise, or the N sentinel for a bare variable), then the chosen §4
    algorithm runs with filters pushed;
(C) the CTP result tables and the driver copies of the BGP tables, both
    handed back to Spark through Arrow, are natural-joined on shared
    variables and projected on the head. Nothing is cached.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .. import core
from ..core import scoring
from ..core.engine import ALL_NODES, is_all_nodes
from ..core.filters import CTPFilters
from ..core.tree import ResultTree
from ..graph.model import LocalGraph
from ..lang.ast import CTP, CTPFilterSpec, Pred, Query
from .bgp import pred_sql, to_sql

SCORE_REGISTRY = {
    "size": scoring.size_score,
    "diversity": scoring.label_diversity,
    "specificity": scoring.specificity_score,
}


def filters_from_spec(
    spec: CTPFilterSpec, defaults: CTPFilters = CTPFilters()
) -> CTPFilters:
    kw: dict = {}
    if spec.uni:
        kw["uni"] = True
    if spec.labels is not None:
        kw["labels"] = spec.labels
    if spec.max_edges is not None:
        kw["max_edges"] = spec.max_edges
    if spec.limit is not None:
        kw["limit"] = spec.limit
    if spec.top_k is not None:
        kw["top_k"] = spec.top_k
    if spec.timeout_s is not None:
        kw["timeout_s"] = spec.timeout_s
    if spec.score is not None:
        kw["score"] = SCORE_REGISTRY[spec.score]
    return defaults.with_(**kw) if kw else defaults


@dataclass
class EQLReport:
    """Evaluation artifacts: per CTP its table, seed sets and search
    outcome, plus the lazy result of step (C)."""

    ctp_tables: list[DataFrame] = field(default_factory=list)
    seed_sets: list[list] = field(default_factory=list)
    ctp_outcomes: list = field(default_factory=list)
    result: DataFrame | None = None


class EQLEngine:
    """Evaluates EQL queries over one graph on a shared SparkSession."""

    def __init__(self, spark: SparkSession, graph: LocalGraph) -> None:
        self.spark = spark
        self.graph = graph
        self.dfs = graph.to_spark(spark)
        for name, df in self.dfs.items():
            df.createOrReplaceTempView(name)

    # ---- step (B1): seed sets -------------------------------------------
    def _pred_nodes(self, pred: Pred) -> list[int]:
        """Nodes satisfying a predicate, via Spark over nodes/types."""
        return [int(r["id"]) for r in self.spark.sql(pred_sql(pred)).collect()]

    def _seed_set(self, pred: Pred, bound: list[pd.DataFrame]):
        for pdf in bound:
            if pred.var in pdf.columns:
                nodes = set(pdf[pred.var].tolist())
                if not pred.is_empty:
                    nodes &= set(self._pred_nodes(pred))
                return sorted(nodes)
        if pred.is_empty:
            return ALL_NODES
        return self._pred_nodes(pred)

    # ---- step (B2): CTP table -------------------------------------------
    def _ctp_table(
        self,
        ctp: CTP,
        seed_sets: list,
        results: list[ResultTree],
        scored: bool,
    ) -> DataFrame:
        """Materialize set-based CTP results as a Spark table with one
        column per seed variable, plus the tree variable columns."""
        w = ctp.tree_var
        cols = [p.var for p in ctp.preds] + [w, f"{w}_size"] + (
            [f"{w}_score"] if scored else []
        )
        rows = []
        for rt in results:
            tree_json = json.dumps(sorted(rt.edges))
            base = [tree_json, rt.size] + ([rt.score] if scored else [])
            # Concrete seed-set variables bind to the tuple's seed; an N
            # variable binds to each node of the tree (§4.9 / adjusted
            # Def. 2.8: any node matches an N set).
            bindings: list[list[int]] = []
            for i, s in enumerate(seed_sets):
                if is_all_nodes(s):
                    bindings.append(sorted(rt.nodes))
                else:
                    bindings.append([rt.seed_of(i)])
            # Cross product over N-variable bindings.
            def expand(i: int, acc: list[int]):
                if i == len(bindings):
                    rows.append(acc + base)
                    return
                for n in bindings[i]:
                    expand(i + 1, acc + [n])

            expand(0, [])
        schema = ", ".join(
            [f"{p.var} long" for p in ctp.preds]
            + [f"{w} string", f"{w}_size long"]
            + ([f"{w}_score double"] if scored else [])
        )
        return self.spark.createDataFrame(
            pd.DataFrame(rows, columns=cols), schema=schema
        )

    # ---- full evaluation -------------------------------------------------
    def evaluate(
        self,
        query: Query,
        *,
        algo: str = "MoLESP",
        default_filters: CTPFilters = CTPFilters(),
        multi_queue: bool = False,
    ) -> EQLReport:
        report = EQLReport()
        # Re-register this engine's views: several engines (one per graph)
        # may coexist on the shared session, and the compiled SQL refers
        # to the fixed names edges/nodes/types.
        for name, df in self.dfs.items():
            df.createOrReplaceTempView(name)
        # (A) BGP evaluation on Catalyst, one Arrow collect per BGP. Def.
        # 2.10 is set-based, so each BGP is projected onto the variables
        # that can influence the output (head ∪ CTP seed variables) and
        # de-duplicated: unused BGP variables would only multiply the join.
        # BGPs are maximal variable-connected groups, so no join key is lost.
        needed = set(query.head)
        for c in query.ctps:
            needed.update(p.var for p in c.preds)
        bound: list[pd.DataFrame] = []
        guard_empty = False
        for b in query.bgps:
            df = self.spark.sql(to_sql(b))
            keep = [c for c in df.columns if c in needed]
            if keep:
                bound.append(df.select(*keep).toPandas().drop_duplicates())
            else:
                # A fully-projected-away BGP still acts as a boolean
                # guard: no embeddings => empty result.
                guard_empty = guard_empty or df.isEmpty()

        # (B) CTP evaluation.
        algo_fn = core.ALGORITHMS[algo]
        for ctp in query.ctps:
            seed_sets = [self._seed_set(p, bound) for p in ctp.preds]
            report.seed_sets.append(seed_sets)
            filters = filters_from_spec(ctp.filters, default_filters)
            outcome = algo_fn(
                self.graph, seed_sets, filters=filters, multi_queue=multi_queue
            )
            report.ctp_outcomes.append(outcome)
            report.ctp_tables.append(
                self._ctp_table(
                    ctp, seed_sets, outcome.results, filters.score is not None
                )
            )

        # (C) natural join + head projection.
        tables = [
            self.spark.createDataFrame(
                pdf, schema=", ".join(f"{c} long" for c in pdf.columns)
            )
            for pdf in bound
        ] + report.ctp_tables
        joined = reduce(_natural_join, tables).distinct()
        head_cols: list[str] = []
        for h in query.head:
            if any(h == c.tree_var for c in query.ctps):
                head_cols += [h, f"{h}_size"]
                if f"{h}_score" in joined.columns:
                    head_cols.append(f"{h}_score")
            else:
                head_cols.append(h)
        report.result = joined.select(*[F.col(c) for c in head_cols])
        if guard_empty:
            report.result = self.spark.createDataFrame([], report.result.schema)
        return report


def _natural_join(a: DataFrame, b: DataFrame) -> DataFrame:
    shared = [c for c in a.columns if c in set(b.columns)]
    if shared:
        return a.join(b, on=shared)
    return a.crossJoin(b)
