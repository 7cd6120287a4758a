"""Table 1 reproduction: EQL queries J1/J2/J3 on a YAGO3-like graph,
MoLESP-EQL vs JEDI-sub / Virtuoso-sub / Neo4j-sub.

Query structure mirrors the paper's characterization:

* J1 — 3 BGPs, 2 CTPs (moderate seed sets);
* J2 — 2 BGPs, 1 CTP with one very *large* seed set (exercises the §4.9
  multi-queue optimization);
* J3 — 1 CTP with an N (all-nodes) seed set (exercises §4.9(i)).

The paper's times (seconds) on YAGO3: J1: JEDI 3.9 / MoLESP 1.9 /
Virtuoso 0.2 / Neo4j timeout; J2: 0.9 / 1 / OOM / timeout;
J3: 0.75 / 2.3 / OOM / 1.27.
"""
from __future__ import annotations

import time

import pandas as pd

from ..baselines.paths import enumerate_paths, reachable_pairs, release
from ..core.filters import CTPFilters
from ..eql import EQLEngine
from ..graph.random_graphs import yago_lite
from ..lang import parse

J1 = '''
SELECT x, o, t1, t2
WHERE (x{type="person"}, "knows", y)
AND (o{type="organization"}, "locatedIn", c)
AND (p{type="place"}, "partOf", q)
AND CTP(x, o, *t1) MAX 2 LIMIT 200
AND CTP(o, p, *t2) MAX 2 LIMIT 200
'''

J2 = '''
SELECT y, z, t
WHERE (x{type="person"}, "knows", y)
AND (z{type="organization"}, "locatedIn", p)
AND CTP(y, z, *t) MAX 2 LIMIT 200
'''

J3 = '''
SELECT a, n, t
WHERE CTP(a{label="e0"}, n, *t) MAX 2 UNI LIMIT 500
'''


def run(spark, *, scale: float = 0.25) -> pd.DataFrame:
    g = yago_lite(scale=scale, seed=11)
    eng = EQLEngine(spark, g)
    edges_df = eng.dfs["edges"].select("id", "src", "label", "dst").cache()
    edges_df.count()
    defaults = CTPFilters(timeout_s=60.0)
    rows = []

    def record(query, system, dt, n, note=""):
        rows.append(
            {
                "query": query, "system": system,
                "time_s": round(dt, 3), "results": n, "note": note,
            }
        )

    for name, text, eql_kwargs in (
        ("J1", J1, {}),
        ("J2", J2, {"multi_queue": True}),
        ("J3", J3, {}),
    ):
        q = parse(text)
        # MoLESP-EQL (ours).
        t0 = time.monotonic()
        rep = eng.evaluate(q, algo="MoLESP", default_filters=defaults, **eql_kwargs)
        n = rep.result.count()
        ctp_s = sum(o.stats.elapsed_s for o in rep.ctp_outcomes)
        record(name, "MoLESP-EQL", time.monotonic() - t0, n,
               f"CTP search {ctp_s:.2f}s of total")

        # Baselines approximate the first CTP of the query as a node-pair
        # path search between its seed sets.
        ss = rep.seed_sets[0]
        src = ss[0] if isinstance(ss[0], list) else sorted(g.nodes)
        dst = ss[1] if isinstance(ss[1], list) else sorted(g.nodes)
        max_len = 2 if name != "J1" else 3

        for system, search, kwargs, note in (
            ("JEDI-sub", enumerate_paths, {"directed": True}, "directed paths"),
            ("Virtuoso-sub", reachable_pairs, {}, "check only"),
            ("Neo4j-sub", enumerate_paths, {"directed": False},
             "undirected paths"),
        ):
            t0 = time.monotonic()
            df = search(spark, edges_df, src, dst, max_len, **kwargs)
            n = df.count()
            release(df)
            record(name, system, time.monotonic() - t0, n, note)
    edges_df.unpersist()
    return pd.DataFrame(rows)
