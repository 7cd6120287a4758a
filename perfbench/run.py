"""Benchmark of the repro system: CTP search, Spark-bound EQL, result-heavy EQL.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ctp_dbpedia --seed 0 --seconds 10 --trace 0

One process runs one workload (``ctp_dbpedia``, ``eql_yago`` or
``eql_cdf``, see RATIONALE.md). It sets up once, runs the workload's
untimed warm-up passes, then timed passes over its fixed query list until
``--seconds`` have passed, and at least two passes. The loop is closed
with one client: a query is issued only after the previous query's result
is counted. Before each query, untimed, the Spark cache is cleared and the
garbage collector runs.

Every query's fingerprint (result rows, trees, search counters, LIMIT
flags) is checked against ``golden.json`` on every pass, and the
workload's independent output checks run outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics, and writes the
spans to ``.bench_build/perfbench/``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record-golden`` stores the fingerprints of this run in ``golden.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"

END_TO_END = {
    "setup_s": "s", "run_s": "s", "success_frac": "fraction",
    "py_peak_rss_mb": "MB",
}
SETUP_PHASES = ("spark.session_s", "graph.generate_s", "graph.to_spark_s",
                "oracle.check_s", "warmup_s")
PER_LAYER = {
    **dict.fromkeys(SETUP_PHASES, "s"),
    "lang.parse_s": "s",
    "core.search_s": "s",
    **dict.fromkeys(("core.built", "core.kept", "core.pruned", "core.grows",
                     "core.merges_tried", "core.merges_done"), "count"),
    "core.merge_yield": "ratio",
    **dict.fromkeys(("core.results", "core.limit_hits", "core.budget_hits"),
                    "count"),
    **dict.fromkeys(("eql.evaluate_s", "eql.evaluate_self_s", "eql.count_s"),
                    "s"),
    **dict.fromkeys(("eql.jobs", "eql.tasks", "eql.evaluate_jobs",
                     "eql.count_jobs", "eql.seed_nodes", "eql.ctp_trees",
                     "eql.result_rows", "eql.cached_rdds_left"), "count"),
    **dict.fromkeys(("trace.run_s", "trace.unattributed_s", "trace.overhead_s"),
                    "s"),
}


def bootstrap(work: Path) -> None:
    """Import the program from this checkout; keep every file inside it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}; "
                 "run from the root of a checkout of the repository")
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, str(src))
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def run_pass(wl, tracer, index: int) -> list:
    from workloads import QueryRun

    runs = []
    for q in wl.queries:
        wl.prep()
        qid = f"{index}:{q.name}"
        try:
            runs.append(wl.run_query(q, tracer, qid))
        except Exception as e:  # one failed query must not end the run
            traceback.print_exc()
            runs.append(QueryRun(qid, q.name, 0.0, error=repr(e)))
    return runs


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4)


def pass_counters(runs: list) -> dict:
    """Per-pass totals of the counters the program reports."""
    c = dict.fromkeys(("core.built", "core.kept", "core.pruned", "core.grows",
                       "core.merges_tried", "core.merges_done", "core.results",
                       "core.limit_hits", "core.budget_hits", "eql.seed_nodes",
                       "eql.ctp_trees", "eql.result_rows",
                       "eql.cached_rdds_left"), 0)
    for qr in runs:
        for o in qr.outcomes:
            s = o.stats
            c["core.built"] += s.built
            c["core.kept"] += s.kept
            c["core.pruned"] += s.pruned
            c["core.grows"] += s.grows
            c["core.merges_tried"] += s.merges_tried
            c["core.merges_done"] += s.merges_done
            c["core.results"] += len(o.results)
            c["core.limit_hits"] += o.limit_hit
            c["core.budget_hits"] += o.timed_out
        if qr.rows is not None:  # an EQL query
            c["eql.seed_nodes"] += qr.seed_nodes
            c["eql.ctp_trees"] += sum(len(o.results) for o in qr.outcomes)
            c["eql.result_rows"] += qr.rows
            c["eql.cached_rdds_left"] += qr.cached_rdds
    tried = c["core.merges_tried"]
    c["core.merge_yield"] = c["core.merges_done"] / tried if tried else 0.0
    return c


def layer_metrics(tracer, passes: list, phases: dict) -> dict:
    """Per-layer values: medians over the traced passes."""
    traced = [runs for on, runs in passes if on]
    untraced = [runs for on, runs in passes if not on]
    by_query: dict[str, list] = {}
    for s in tracer.spans:
        by_query.setdefault(s.query, []).append(s)
    per_pass = []
    for runs in traced:
        spans = [s for qr in runs for s in by_query.get(qr.qid, [])]
        self_t = tracer.self_times(spans)
        v = pass_counters(runs)

        def total(name, attr="dur"):
            return sum(
                self_t[s.id] if attr == "self" else getattr(s, attr)
                for s in spans if s.name == name)

        v.update({
            "lang.parse_s": total("lang.parse"),
            "core.search_s": total("core.search"),
            "eql.evaluate_s": total("eql.evaluate"),
            "eql.evaluate_self_s": total("eql.evaluate", "self"),
            "eql.count_s": total("eql.count"),
            "eql.evaluate_jobs": total("eql.evaluate", "jobs"),
            "eql.count_jobs": total("eql.count", "jobs"),
            "eql.jobs": total("eql.evaluate", "jobs") + total("eql.count", "jobs"),
            "eql.tasks": total("eql.evaluate", "tasks") + total("eql.count", "tasks"),
            "trace.run_s": total("query"),
            "trace.unattributed_s": total("query", "self"),
        })
        per_pass.append(v)
    out = dict(phases)
    out.update({k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]})
    out["trace.overhead_s"] = (
        statistics.median(sum(q.seconds for q in r) for r in traced)
        - statistics.median(sum(q.seconds for q in r) for r in untraced))
    return out


def host_record(spark) -> dict:
    import pyspark

    java = None
    if spark is not None:
        java = spark.sparkContext._jvm.System.getProperty("java.version")
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "pyspark": pyspark.__version__,
        "java": java, "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ctp_dbpedia", "eql_yago", "eql_cdf"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    work = OUT / f"work-{os.getpid()}"
    bootstrap(work)
    import workloads
    from tracing import NoTracer, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else NoTracer()
    untraced = NoTracer()
    phases = dict.fromkeys(SETUP_PHASES, 0.0)
    passes: list[tuple[bool, list]] = []
    try:
        wl.setup(tracer, phases)
        with tracer.span("warmup", "setup"):
            t0 = time.perf_counter()
            warm = [run_pass(wl, untraced, -1 - i) for i in range(wl.warmup_passes)]
            phases["warmup_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        while True:
            on = bool(args.trace) and len(passes) % 2 == 1
            passes.append((on, run_pass(wl, tracer if on else untraced, len(passes))))
            if time.perf_counter() - t0 >= args.seconds and len(passes) >= 2:
                break
        tracer.resolve_jobs()
        ref = warm[0] if warm else passes[0][1]
        check_errs = wl.check(ref)
        host = host_record(wl.spark)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)

    ref_fp = {qr.name: qr.fingerprint() for qr in ref}
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    if args.record_golden:
        golden[wl.name] = ref_fp
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    gold = golden.get(wl.name, {})
    problems = [f"{n}: {e}" for n, es in check_errs.items() for e in es]
    if not gold:
        problems.append(f"no golden fingerprints for {wl.name}")
    drift = set()
    for runs in warm + [r for _, r in passes]:
        for qr in runs:
            fp = qr.fingerprint()
            if fp is None or fp != ref_fp[qr.name] or fp != gold.get(qr.name):
                drift.add(qr.name)
                problems.append(f"{qr.qid}: fingerprint {fp} differs from "
                                f"golden {gold.get(qr.name)}"
                                + (f" ({qr.error})" if qr.error else ""))
    timed = [qr for _, runs in passes for qr in runs]
    ok = sum(qr.finished and qr.name not in drift and not check_errs[qr.name]
             for qr in timed)
    pass_s = [sum(q.seconds for q in runs) for on, runs in passes if not on]
    per_query = {q.name: statistics.median(
        qr.seconds for on, runs in passes if not on for qr in runs
        if qr.name == q.name) for q in wl.queries}
    e2e = {
        "setup_s": sum(phases.values()),
        "run_s": statistics.median(pass_s),
        "success_frac": ok / len(timed),
        "py_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "workload": wl.name, "seed": args.seed, "host": host,
        "settings": {
            "master": f"local[{workloads.CORES}]"
            if isinstance(wl, workloads.EqlWorkload) else None,
            "shuffle_partitions": workloads.SHUFFLE_PARTITIONS,
            "driver_memory": workloads.DRIVER_MEMORY,
            "java_options": workloads.JAVA_OPTIONS,
            "spark.ui.showConsoleProgress": False,
            "warmup_passes": wl.warmup_passes,
            "before_each_query": "spark.catalog.clearCache(); gc.collect()",
            "max_built": workloads.MAX_BUILT,
            "fresh_process": os.getpid(),
        },
        "setup_phases_s": phases,
        "run_s_quartiles": quartiles(pass_s),
        "timed_passes": len(pass_s),
        "pass_s": pass_s,
        "query_median_s": per_query,
        "end_to_end": e2e,
        "problems": problems,
    }
    metrics, units = e2e, END_TO_END
    if args.trace:
        metrics, units = layer_metrics(tracer, passes, phases), PER_LAYER
        record["per_layer"] = metrics
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"trace-{wl.name}-seed{args.seed}.json", record)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(timed),
        "failed": len(timed) - ok,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
