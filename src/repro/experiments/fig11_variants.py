"""Figure 11 reproduction: GAM vs ESP vs MoESP vs LESP vs MoLESP —
running time and number of provenances built on Line / Comb / Star.

Paper shape: ESP/LESP find no results on Line/Comb (edge-set pruning
kills the only provenance chains); MoESP == MoLESP there; MoLESP beats
GAM by a growing factor; on Star, LESP's exemption applies and the
Mo variants pay a small injection overhead. Run time tracks provenance
counts.
"""
from __future__ import annotations

import pandas as pd

from ..core import ALGORITHMS
from ..core.filters import CTPFilters
from ..graph import generators as gen

ALGOS = ["GAM", "ESP", "MoESP", "LESP", "MoLESP"]


def workloads(full: bool = False):
    out = []
    lines = [(5, 4), (10, 4), (10, 8)] + ([(15, 8)] if full else [])
    for m, n_l in lines:
        out.append(("Line", f"m={m},nL={n_l}", gen.line(m, n_l)))
    combs = [(3, 1, 2, 2), (5, 1, 2, 2), (6, 1, 2, 2)] + (
        [(6, 2, 2, 2)] if full else []
    )
    for p in combs:
        out.append(
            ("Comb", f"nA={p[0]},nS={p[1]},sL={p[2]},dBA={p[3]}", gen.comb(*p))
        )
    stars = [(6, 2), (8, 2), (9, 3)] + ([(11, 3)] if full else [])
    for m, s_l in stars:
        out.append(("Star", f"m={m},sL={s_l}", gen.star(m, s_l)))
    return out


def run(*, timeout_s: float = 30.0, full: bool = False) -> pd.DataFrame:
    rows = []
    filters = CTPFilters(timeout_s=timeout_s)
    for family, params, bundle in workloads(full):
        for algo in ALGOS:
            out = ALGORITHMS[algo](bundle.graph, bundle.seed_sets, filters=filters)
            rows.append(
                {
                    "family": family,
                    "params": params,
                    "m": len(bundle.seed_sets),
                    "edges": bundle.graph.n_edges,
                    "algo": algo,
                    "time_s": round(out.stats.elapsed_s, 3),
                    "provenances": out.stats.built,
                    "results": len(out.results),
                    "stop": out.stop,
                }
            )
    return pd.DataFrame(rows)
