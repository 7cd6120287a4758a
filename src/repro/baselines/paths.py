"""Spark iterative-dataflow baselines standing in for the paper's §5.2
graph-query systems (substitutions documented in DESIGN.md §3):

* :func:`enumerate_paths` (directed)          — PostgreSQL recursive CTE /
  JEDI-style path enumeration, returning full paths;
* :func:`enumerate_paths` (``directed=False``) — Neo4j-style undirected
  path enumeration (exhibits the same blow-up);
* :func:`reachable_pairs`                      — Virtuoso-style reachability
  *check* (existence only, no paths returned).

Both run one frontier-at-a-time DataFrame loop (:func:`_hops`): one join
per hop, with visited-array pruning for paths (no node revisits — simple
paths) and the reached pairs as the visited set for reachability. This is
BFS/shortest-path-style traversal over distributed edges, expressed in the
DataFrame API. Each returns a checkpoint, which the caller passes to
:func:`release` when done with it.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def _edge_relation(
    edges: DataFrame, directed: bool, labels: frozenset[str] | None
) -> DataFrame:
    e = edges
    if labels is not None:
        e = e.where(F.col("label").isin(list(labels)))
    fwd = e.select(
        F.col("src").alias("u"), F.col("dst").alias("v"), F.col("id").alias("eid")
    )
    if directed:
        return fwd
    bwd = e.select(
        F.col("dst").alias("u"), F.col("src").alias("v"), F.col("id").alias("eid")
    )
    return fwd.unionByName(bwd)


def _as_id_df(spark: SparkSession, nodes, name: str) -> DataFrame:
    """The node ids ``nodes`` as a one-column frame ``name``."""
    return spark.createDataFrame(
        [(int(n),) for n in nodes], schema=f"{name} long"
    ).distinct()


def release(df: DataFrame) -> None:
    """Unpersist the blocks of a ``localCheckpoint``: ``DataFrame.unpersist``
    does not reach them, so they would stay until Spark's ContextCleaner
    happened to drop them. A frame that is no checkpoint is left alone."""
    plan = df._jdf.queryExecution().analyzed()
    if plan.nodeName() == "LogicalRDD":
        plan.rdd().unpersist(False)


def _replace(old: DataFrame, new: DataFrame) -> DataFrame:
    """Checkpoint ``new`` eagerly, then release ``old``, which it replaces."""
    new = new.localCheckpoint(eager=True)
    release(old)
    return new


def _hops(frontier, acc, max_len, step, collect) -> DataFrame:
    """The frontier loop both baselines share. Each hop replaces the
    frontier by ``step(frontier, acc)`` and, unless that is empty, the
    accumulator by ``acc`` plus ``collect(frontier, hop)``. Each new frame
    is checkpointed at once and the one it replaces released, so the
    returned accumulator is the only checkpoint left."""
    for hop in range(1, max_len + 1):
        frontier = _replace(frontier, step(frontier, acc))
        if frontier.isEmpty():
            break
        acc = _replace(acc, acc.unionByName(collect(frontier, hop)))
    release(frontier)
    return acc


def enumerate_paths(
    spark: SparkSession,
    edges: DataFrame,
    sources,
    targets,
    max_len: int,
    *,
    directed: bool = True,
    labels: frozenset[str] | None = None,
) -> DataFrame:
    """All simple paths (no repeated node) of 1..max_len edges from a
    source to a target. Returns (src, dst, edges array<long>, hops), a
    checkpoint for the caller to :func:`release`."""
    rel = _edge_relation(edges, directed, labels)
    dst_df = _as_id_df(spark, targets, "t")
    frontier = _as_id_df(spark, sources, "s").select(
        F.col("s").alias("start"),
        F.col("s").alias("cur"),
        F.array().cast("array<long>").alias("path"),
        F.array(F.col("s")).alias("visited"),
    )

    def step(frontier, _):
        return (
            frontier.join(rel, frontier.cur == rel.u)
            .where(~F.array_contains(F.col("visited"), F.col("v")))
            .select(
                "start",
                F.col("v").alias("cur"),
                F.concat(F.col("path"), F.array(F.col("eid"))).alias("path"),
                F.concat(F.col("visited"), F.array(F.col("v"))).alias("visited"),
            )
        )

    def collect(frontier, hop):
        return frontier.join(dst_df, frontier.cur == dst_df.t).select(
            F.col("start").alias("src"),
            F.col("cur").alias("dst"),
            F.col("path").alias("edges"),
            F.lit(hop).alias("hops"),
        )

    found = spark.createDataFrame(
        [], schema="src long, dst long, edges array<long>, hops int"
    )
    return _hops(frontier, found, max_len, step, collect)


def reachable_pairs(
    spark: SparkSession,
    edges: DataFrame,
    sources,
    targets,
    max_len: int,
    *,
    directed: bool = True,
    labels: frozenset[str] | None = None,
) -> DataFrame:
    """Existence-only reachability: (src, dst, dist) with the first hop
    count at which dst became reachable from src, a checkpoint for the
    caller to :func:`release`. No paths returned — the Virtuoso-SPARQL/-SQL
    contract."""
    rel = _edge_relation(edges, directed, labels)
    frontier = _as_id_df(spark, sources, "s").select(
        F.col("s").alias("start"), F.col("s").alias("cur")
    )

    def step(frontier, reached):
        # The reached pairs are the visited set; a source is visited from
        # itself at distance 0.
        return (
            frontier.join(rel, frontier.cur == rel.u)
            .select("start", F.col("v").alias("cur"))
            .where(F.col("start") != F.col("cur"))
            .distinct()
            .join(reached, on=["start", "cur"], how="left_anti")
        )

    def collect(frontier, hop):
        return frontier.withColumn("dist", F.lit(hop))

    reached = _hops(
        frontier,
        spark.createDataFrame([], schema="start long, cur long, dist int"),
        max_len, step, collect,
    )
    dst_df = _as_id_df(spark, targets, "t")
    return _replace(
        reached,
        reached.join(dst_df, reached.cur == dst_df.t).select(
            F.col("start").alias("src"), F.col("cur").alias("dst"), "dist"
        ),
    )


def stitch_paths_m3(
    paths_1: DataFrame, paths_2: DataFrame
) -> DataFrame:
    """The §2 'path stitching' workaround for m=3 baselines: join paths
    sharing the same root (src). As the paper notes, results differ from
    CTP semantics — duplicates and non-minimal/non-tree joins included;
    no deduplication or minimization is attempted (neither do the paper's
    baselines)."""
    a = paths_1.select(
        F.col("src").alias("root"), F.col("dst").alias("dst1"),
        F.col("edges").alias("edges1"), F.col("hops").alias("hops1"),
    )
    b = paths_2.select(
        F.col("src").alias("root"), F.col("dst").alias("dst2"),
        F.col("edges").alias("edges2"), F.col("hops").alias("hops2"),
    )
    return a.join(b, on="root")
