"""Figures 13/14 reproduction: extended-query (EQL) evaluation on CDF
graphs vs the graph-system baselines.

Systems (substitutions per DESIGN.md §3):

* ``Virtuoso-sub``  — unidirectional reachability *check* (no paths)
* ``Postgres-sub``  — directed path enumeration (recursive-CTE style)
* ``JEDI-sub``      — directed, label-constrained path enumeration
* ``Neo4j-sub``     — undirected path enumeration
* ``UNI-MoLESP``    — full EQL pipeline, CTP restricted to UNI
* ``MoLESP``        — full EQL pipeline, bidirectional (the paper's point:
  the only feasible bidirectional system)

For m=3 the path baselines use §2 path stitching (join on the shared
root), which over-counts and is not deduplicated — as in the paper.
"""
from __future__ import annotations

import time

import pandas as pd

from ..baselines.paths import (
    enumerate_paths, reachable_pairs, release, stitch_paths_m3,
)
from ..eql import EQLEngine
from ..graph import generators as gen
from ..lang import parse

Q_M2 = '''
SELECT tl, bl, l
WHERE (x, "c", tl)
AND (v, "g", bl)
AND CTP(tl, bl, *l)
'''

Q_M3 = '''
SELECT tl, bl1, bl2, l
WHERE (x, "c", tl)
AND (v, "g", bl1)
AND (v, "h", bl2)
AND CTP(tl, bl1, bl2, *l)
'''


def _sizes(full: bool):
    return [(32, 64), (64, 128), (128, 256)] + ([(256, 512)] if full else [])


def run(
    spark,
    *,
    m: int = 2,
    full: bool = False,
) -> pd.DataFrame:
    rows = []
    query_text = Q_M2 if m == 2 else Q_M3
    for s_l in (3, 6):
        for n_t, n_l in _sizes(full):
            b = gen.cdf(m, n_t=n_t, n_l=n_l, s_l=s_l, seed=17)
            eng = EQLEngine(spark, b.graph)
            edges_df = eng.dfs["edges"].select("id", "src", "label", "dst").cache()
            edges_df.count()

            # Seed node sets for the baselines come from the same BGPs.
            rep0 = eng.evaluate(
                parse(query_text.replace("*l)", "*l) MAX 0")), algo="MoLESP"
            )
            tl_nodes = rep0.seed_sets[0][0]
            bl_nodes = sorted(
                set(rep0.seed_sets[0][1])
                | (set(rep0.seed_sets[0][2]) if m == 3 else set())
            )
            max_len = s_l + 1

            def record(system, n, dt, note):
                rows.append(
                    {
                        "m": m, "S_L": s_l, "N_T": n_t, "N_L": n_l,
                        "edges": b.graph.n_edges, "system": system,
                        "results": n, "time_s": round(dt, 3), "note": note,
                    }
                )

            for system, search, kwargs, note in (
                ("Virtuoso-sub", reachable_pairs, {}, "check only"),
                ("Postgres-sub", enumerate_paths, {"directed": True}, "paths"),
                ("JEDI-sub", enumerate_paths,
                 {"directed": True, "labels": frozenset({"L"})},
                 "label-constrained"),
                ("Neo4j-sub", enumerate_paths, {"directed": False},
                 "undirected"),
            ):
                t0 = time.monotonic()
                df = search(spark, edges_df, tl_nodes, bl_nodes, max_len, **kwargs)
                stitch = m == 3 and search is enumerate_paths
                n = (stitch_paths_m3(df, df) if stitch else df).count()
                release(df)
                record(system, n, time.monotonic() - t0, note)

            for label, qtext in (
                ("UNI-MoLESP", query_text.replace("*l)", "*l) UNI")),
                ("MoLESP", query_text),
            ):
                t0 = time.monotonic()
                rep = eng.evaluate(parse(qtext), algo="MoLESP")
                n = rep.result.count()
                ctp_n = len(rep.ctp_outcomes[0].results)
                record(
                    label, n, time.monotonic() - t0,
                    f"trees={ctp_n}" + (" bidir" if label == "MoLESP" else ""),
                )
            edges_df.unpersist()
    return pd.DataFrame(rows)
