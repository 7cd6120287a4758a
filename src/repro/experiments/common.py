"""Table emission shared by the experiments.

Every experiment module exposes ``run(...) -> pandas.DataFrame`` so the
same code backs the ``jobs/`` entrypoints, the ``benchmarks/`` targets and
the EXPERIMENTS.md tables.
"""
from __future__ import annotations

import pandas as pd


def fmt_table(df: pd.DataFrame) -> str:
    """Markdown-ish fixed-width rendering for job stdout / EXPERIMENTS.md."""
    return df.to_string(index=False)
