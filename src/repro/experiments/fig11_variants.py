"""Figure 11 reproduction: GAM vs ESP vs MoESP vs LESP vs MoLESP —
running time and number of provenances built (the ``built`` column) on
Line / Comb / Star.

Paper shape: ESP/LESP find no results on Line/Comb (edge-set pruning
kills the only provenance chains); MoESP == MoLESP there; MoLESP beats
GAM by a growing factor; on Star, LESP's exemption applies and the
Mo variants pay a small injection overhead. Run time tracks provenance
counts.
"""
from __future__ import annotations

import pandas as pd

from .fig10_baselines import sweep

ALGOS = ["GAM", "ESP", "MoESP", "LESP", "MoLESP"]


def run(*, timeout_s: float = 30.0, full: bool = False) -> pd.DataFrame:
    """The sweep at container size; ``full`` adds one larger instance per
    family."""
    return sweep(
        ALGOS,
        [(5, 4), (10, 4), (10, 8)] + ([(15, 8)] if full else []),
        [(3, 1, 2, 2), (5, 1, 2, 2), (6, 1, 2, 2)] + ([(6, 2, 2, 2)] if full else []),
        [(6, 2), (8, 2), (9, 3)] + ([(11, 3)] if full else []),
        timeout_s=timeout_s,
    )
