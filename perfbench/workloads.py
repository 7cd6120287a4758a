"""The three benchmark workloads, their inputs and their output checks.

Every workload calls the program only through its public entry points:
``repro.core.molesp`` / ``repro.core.ALGORITHMS``, ``repro.lang.parse``,
``EQLEngine(...)``, ``EQLEngine.evaluate`` and ``count()`` on the result.

Inputs are the experiment modules' own inputs (Fig 12, Table 1, Fig 14).
The workload seed renames every node id by a seeded, order-preserving map
into [0, 2^40); seed 0 keeps the ids. Every id-ordered tie-break in the
search survives the renaming, so each seed does the same work and gives
the same fingerprints (result counts, tree edge sets, search counters).
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro import core
from repro.core import molesp
from repro.core.bft import is_unidirectional, tree_leaves
from repro.core.filters import CTPFilters
from repro.graph.model import Edge, LocalGraph

# Deterministic work budget per CTP (provenances built). The default inputs
# need at most 74,802; a query that reaches the cap counts as failed.
MAX_BUILT = 2_000_000
CORES = max(1, min(4, len(os.sched_getaffinity(0))))
SHUFFLE_PARTITIONS = 16
DRIVER_MEMORY = "2g"
JAVA_OPTIONS = "-XX:TieredStopAtLevel=1"


def rename_nodes(g: LocalGraph, seed: int) -> tuple[LocalGraph, dict[int, int]]:
    """An isomorphic copy of ``g`` with node ids renamed; edge ids kept."""
    nodes = sorted(g.nodes)
    if seed == 0:
        ids = nodes
    else:
        ids = sorted(random.Random(seed).sample(range(1 << 40), len(nodes)))
    mp = dict(zip(nodes, ids))
    edges = [Edge(e.id, mp[e.src], e.label, mp[e.dst]) for e in g.edges.values()]
    return (
        LocalGraph(
            edges,
            {mp[n]: lbl for n, lbl in g.node_labels.items()},
            {mp[n]: ts for n, ts in g.node_types.items()},
        ),
        mp,
    )


def timed_median(fn, repeats: int) -> tuple[object, float]:
    """Run ``fn`` ``repeats`` times; the last output and the median time."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def ctp_fingerprint(o) -> dict:
    """What a pure speed change must leave identical for one CTP."""
    s = o.stats
    digest = hashlib.sha1(
        json.dumps([sorted(r.edges) for r in o.results]).encode()
    ).hexdigest()[:16]
    return {
        "trees": len(o.results), "edges_sha1": digest,
        "built": s.built, "kept": s.kept, "pruned": s.pruned,
        "grows": s.grows, "merges_done": s.merges_done,
        "limit_hit": o.limit_hit, "exhausted": o.exhausted,
    }


@dataclass
class QueryRun:
    """One execution of one query: its timed seconds and untimed facts."""

    qid: str
    name: str
    seconds: float
    outcomes: list = field(default_factory=list)
    rows: int | None = None
    seed_nodes: int = 0
    cached_rdds: int = 0
    error: str | None = None

    @property
    def finished(self) -> bool:
        """Exhausted or stopped at LIMIT, with no budget cut."""
        return self.error is None and all(
            (o.exhausted or o.limit_hit) and not o.timed_out for o in self.outcomes
        )

    def fingerprint(self) -> dict | None:
        if self.error is not None:
            return None
        return {"rows": self.rows,
                "ctps": [ctp_fingerprint(o) for o in self.outcomes]}


# ---------------------------------------------------------------- ctp_dbpedia
@dataclass
class CtpQuery:
    name: str
    seed_sets: list


class CtpDbpedia:
    """Fig 12: directed 1-hop CTPs at m=3 and m=4 on dbpedia_lite(0.5),
    MoLESP under UNI + LIMIT 1. In-memory search only; no Spark."""

    name = "ctp_dbpedia"
    warmup_passes = 0
    filters = CTPFilters(uni=True, limit=1, max_built=MAX_BUILT)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.spark = None

    def _inputs(self):
        from repro.graph.random_graphs import dbpedia_lite, sample_ctp_workload

        g = dbpedia_lite(scale=0.5, seed=7)
        queries = [
            (f"m{m}q{i}", ss)
            for m in (3, 4)
            for i, ss in enumerate(sample_ctp_workload(
                g, m=m, n_queries=8, seed=m, mode="directed", max_hops=1))
        ]
        g2, mp = rename_nodes(g, self.seed)
        return g2, [CtpQuery(n, [[mp[x] for x in s] for s in ss])
                    for n, ss in queries]

    def setup(self, tracer, phases: dict) -> None:
        with tracer.span("graph.generate", "setup"):
            (self.g, self.queries), phases["graph.generate_s"] = timed_median(
                self._inputs, 3)

    def prep(self) -> None:
        gc.collect()

    def run_query(self, q: CtpQuery, tracer, qid: str) -> QueryRun:
        t0 = time.perf_counter()
        with tracer.span("query", qid):
            with tracer.span("core.search"):
                out = molesp(self.g, q.seed_sets, filters=self.filters)
        dt = time.perf_counter() - t0
        return QueryRun(qid, q.name, dt, [out])

    def check(self, ref: list[QueryRun]) -> dict[str, list[str]]:
        """Every query returns a tree; every tree is a valid UNI result."""
        errs = {}
        for q, qr in zip(self.queries, ref):
            results = qr.outcomes[0].results if qr.outcomes else []
            e = [] if results else ["no tree returned"]
            for rt in results:
                e += tree_errors(self.g, q.seed_sets, rt)
            errs[q.name] = e
        return errs

    def close(self) -> None:
        pass


def tree_errors(g: LocalGraph, seed_sets: list, rt) -> list[str]:
    errs = []
    bound = {}
    for i, n in rt.seeds:
        bound.setdefault(i, []).append(n)
    for i, s in enumerate(seed_sets):
        got = bound.get(i, [])
        if len(got) != 1 or got[0] not in s or got[0] not in rt.nodes:
            errs.append(f"seed set {i}: bound to {got}")
    ends = {x for e in rt.edges for x in g.edge_endpoints(e)}
    if rt.edges and ends != set(rt.nodes):
        errs.append("node set differs from edge endpoints")
    if len(rt.nodes) != len(rt.edges) + 1:
        errs.append("not a tree: |nodes| != |edges| + 1")
    adj: dict[int, list[int]] = {}
    for e in rt.edges:
        s, d = g.edge_endpoints(e)
        adj.setdefault(s, []).append(d)
        adj.setdefault(d, []).append(s)
    start = next(iter(rt.nodes))
    seen, stack = {start}, [start]
    while stack:
        for v in adj.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if seen != set(rt.nodes):
        errs.append("tree is not connected")
    seeds = {n for _, n in rt.seeds}
    if not tree_leaves(rt.edges, g) <= seeds:
        errs.append("a leaf is not a seed")
    if not is_unidirectional(rt.edges, g):
        errs.append("tree is not root-directed")
    return errs


# ------------------------------------------------------------------ Spark/EQL
def start_spark(work: Path):
    """A local SparkSession pinned to this benchmark's settings."""
    local, tmp = work / "spark-local", work / "tmp"
    local.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", f"local[{CORES}]",
        "--driver-memory", DRIVER_MEMORY,
        "--driver-java-options",
        shlex.quote(f"{JAVA_OPTIONS} -Djava.io.tmpdir={tmp}"),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={local}"),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM it launched has exited."""
    gw = spark.sparkContext._gateway
    spark.stop()
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclass
class EqlQuery:
    name: str
    text: str
    kwargs: dict


class EqlWorkload:
    """Shared driver for the EQL workloads: one SparkSession, one engine."""

    name = ""
    warmup_passes = 1
    filters = CTPFilters(max_built=MAX_BUILT)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.spark = None
        self.errors: list[str] = []

    def graph(self) -> LocalGraph:
        raise NotImplementedError

    def oracle(self) -> None:
        """Checks run once during setup (none by default)."""

    def setup(self, tracer, phases: dict) -> None:
        from repro.eql import EQLEngine

        with tracer.span("spark.session", "setup"):
            t0 = time.perf_counter()
            self.spark = start_spark(self.work)
            phases["spark.session_s"] = time.perf_counter() - t0
        tracer.sc = self.spark.sparkContext
        with tracer.span("graph.generate", "setup"):
            self.g, phases["graph.generate_s"] = timed_median(
                lambda: rename_nodes(self.graph(), self.seed)[0], 3)
        with tracer.span("graph.to_spark", "setup", spark=True):
            t0 = time.perf_counter()
            self.eng = EQLEngine(self.spark, self.g)
            phases["graph.to_spark_s"] = time.perf_counter() - t0
        with tracer.span("oracle.check", "setup", spark=True):
            t0 = time.perf_counter()
            self.oracle()
            phases["oracle.check_s"] = time.perf_counter() - t0

    def prep(self) -> None:
        self.spark.catalog.clearCache()
        gc.collect()

    def run_query(self, q: EqlQuery, tracer, qid: str) -> QueryRun:
        from repro.lang import parse

        orig = core.ALGORITHMS["MoLESP"]
        if tracer.on:
            def traced(*args, **kwargs):
                with tracer.span("core.search"):
                    return orig(*args, **kwargs)
            core.ALGORITHMS["MoLESP"] = traced
        try:
            t0 = time.perf_counter()
            with tracer.span("query", qid):
                with tracer.span("lang.parse"):
                    query = parse(q.text)
                with tracer.span("eql.evaluate", spark=True):
                    rep = self.eng.evaluate(
                        query, algo="MoLESP", default_filters=self.filters,
                        **q.kwargs)
                with tracer.span("eql.count", spark=True):
                    rows = rep.result.count()
            dt = time.perf_counter() - t0
        finally:
            core.ALGORITHMS["MoLESP"] = orig
        cached = 0
        if tracer.on:
            cached = self.spark.sparkContext._jsc.getPersistentRDDs().size()
        seed_nodes = sum(
            len(s) for ss in rep.seed_sets for s in ss if isinstance(s, list))
        return QueryRun(qid, q.name, dt, list(rep.ctp_outcomes), rows,
                        seed_nodes, cached)

    def check(self, ref: list[QueryRun]) -> dict[str, list[str]]:
        return {q.name: list(self.errors) for q in self.queries}

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None


class EqlYago(EqlWorkload):
    """Table 1: J1, J2 (multi-queue) and J3 on yago_lite(0.25)."""

    name = "eql_yago"

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        from repro.experiments.table1_yago import J1, J2, J3

        self.queries = [
            EqlQuery("J1", J1, {}),
            EqlQuery("J2", J2, {"multi_queue": True}),
            EqlQuery("J3", J3, {}),
        ]

    def graph(self) -> LocalGraph:
        from repro.graph.random_graphs import yago_lite

        return yago_lite(scale=0.25, seed=11)

    def oracle(self) -> None:
        """Every BGP table of every query matches DuckDB."""
        from repro.eql import to_sql
        from repro.lang import parse
        from repro.oracle import assert_equivalent

        tables = self.g.to_pandas()
        for q in self.queries:
            for i, b in enumerate(parse(q.text).bgps):
                sql = to_sql(b)
                try:
                    assert_equivalent(self.spark.sql(sql), sql, **tables)
                except AssertionError as e:
                    self.errors.append(f"{q.name} BGP {i} differs from DuckDB: {e}")


class EqlCdf(EqlWorkload):
    """Fig 14: CDF m=3, Q_M3 once under UNI and once bidirectional."""

    name = "eql_cdf"
    N_T, N_L, S_L = 512, 1024, 3

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        from repro.experiments.cdf_eql import Q_M3

        self.queries = [
            EqlQuery("uni", Q_M3.replace("*l)", "*l) UNI"), {}),
            EqlQuery("bidir", Q_M3, {}),
        ]

    def graph(self) -> LocalGraph:
        from repro.graph import generators as gen

        b = gen.cdf(3, n_t=self.N_T, n_l=self.N_L, s_l=self.S_L, seed=17)
        # k links from one top leaf to one bottom pair give k*k UNI trees:
        # one per choice of stem towards each of the two bottom leaves.
        self.uni_rows = sum(k * k for k in Counter(b.links).values())
        return b.graph

    def check(self, ref: list[QueryRun]) -> dict[str, list[str]]:
        """The CDF construction fixes the UNI answer: N_L rows, plus the
        extra trees of links that share both ends."""
        errs = super().check(ref)
        for qr in ref:
            if qr.name == "uni" and qr.rows != self.uni_rows:
                errs["uni"].append(
                    f"UNI returned {qr.rows} rows, not {self.uni_rows}")
        return errs


WORKLOADS = {"ctp_dbpedia": CtpDbpedia, "eql_yago": EqlYago, "eql_cdf": EqlCdf}
