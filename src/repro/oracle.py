"""DuckDB correctness oracle.

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toArrow()``, so an ``array<…>`` column reaches DuckDB
typed as a list, not typed from a sample of its rows. Alias every
output column identically on both sides (Spark names ``count(*)`` as
``count(1)``, DuckDB as ``count_star()``). Array cells compare as tuples,
element by element, in order (Spark returns lists, DuckDB numpy arrays);
map/struct cells cannot be compared.

Every connection is opened by :func:`connect`, which defines what the BGP
SQL of :mod:`repro.eql.bgp` needs beyond DuckDB's own functions.
"""
import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    for c in pdf.select_dtypes(include="object").columns:
        pdf[c] = [tuple(v) if isinstance(v, (list, np.ndarray)) else v for v in pdf[c]]
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def connect() -> duckdb.DuckDBPyConnection:
    """An in-memory DuckDB connection with Spark's ``size`` of an array,
    which DuckDB spells ``len``."""
    con = duckdb.connect()
    con.execute("CREATE MACRO size(a) AS len(a)")
    return con


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toArrow() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )
