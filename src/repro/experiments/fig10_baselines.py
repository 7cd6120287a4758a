"""Figure 10 reproduction: complete (baseline) CTP algorithms — BFT,
BFT-M, BFT-AM vs GAM on Line / Comb / Star sweeps.

Paper shape to reproduce: the breadth-first family degrades sharply and
times out on the larger Comb/Star instances (BFT-AM paying the largest
merge overhead), while GAM completes everywhere.
"""
from __future__ import annotations

import pandas as pd

from ..core import ALGORITHMS
from ..core.filters import CTPFilters
from ..graph import generators as gen

ALGOS = ["BFT", "BFT-M", "BFT-AM", "GAM"]


def sweep(algos, lines, combs, stars, *, timeout_s: float) -> pd.DataFrame:
    """Run every algorithm of ``algos`` on Line(m, nL), Comb(nA, nS, sL,
    dBA) and Star(m, sL) graphs of the given sizes, one row per pair;
    Fig 10 and Fig 11 differ only in their algorithms and sizes."""
    bundles = (
        [("Line", f"m={m},nL={n_l}", gen.line(m, n_l)) for m, n_l in lines]
        + [
            ("Comb", f"nA={p[0]},nS={p[1]},sL={p[2]},dBA={p[3]}", gen.comb(*p))
            for p in combs
        ]
        + [("Star", f"m={m},sL={s_l}", gen.star(m, s_l)) for m, s_l in stars]
    )
    filters = CTPFilters(timeout_s=timeout_s)
    rows = []
    for family, params, bundle in bundles:
        for algo in algos:
            out = ALGORITHMS[algo](bundle.graph, bundle.seed_sets, filters=filters)
            rows.append(
                {
                    "family": family,
                    "params": params,
                    "m": len(bundle.seed_sets),
                    "edges": bundle.graph.n_edges,
                    "algo": algo,
                    "time_s": round(out.stats.elapsed_s, 3),
                    "built": out.stats.built,
                    "results": len(out.results),
                    "stop": out.stop,
                }
            )
    return pd.DataFrame(rows)


def run(*, timeout_s: float = 10.0, full: bool = False) -> pd.DataFrame:
    """The sweep at container size; ``full`` adds one larger instance per
    family."""
    return sweep(
        ALGOS,
        [(3, 2), (5, 2), (10, 2)] + ([(10, 4)] if full else []),
        [(3, 1, 2, 2), (4, 1, 2, 2), (5, 1, 2, 2)] + ([(6, 1, 3, 3)] if full else []),
        [(4, 2), (6, 2), (8, 2)] + ([(10, 2)] if full else []),
        timeout_s=timeout_s,
    )
