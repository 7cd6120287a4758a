"""Benchmark: Table 1 — J1/J2/J3 EQL queries on yago_lite."""
import pytest

from repro.core.filters import CTPFilters
from repro.eql import EQLEngine
from repro.experiments.table1_yago import J1, J2, J3
from repro.graph.random_graphs import yago_lite
from repro.lang import parse

# A work budget, not a wall-clock timeout, so the result is the same on
# every host; each query stops at its LIMIT far below it.
_DEFAULTS = CTPFilters(max_built=2_000_000)


@pytest.fixture(scope="module")
def engine(spark):
    return EQLEngine(spark, yago_lite(scale=0.1, seed=11))


def _run(benchmark, engine, text, **kwargs):
    def once():
        rep = engine.evaluate(
            parse(text), algo="MoLESP", default_filters=_DEFAULTS, **kwargs
        )
        return rep, rep.result.count()

    rep, n = benchmark.pedantic(once, iterations=1, rounds=2)
    assert all(o.stop in ("exhausted", "limit") for o in rep.ctp_outcomes)
    return n


def test_table1_j1(benchmark, engine):
    assert _run(benchmark, engine, J1) == 6008


def test_table1_j2_multi_queue(benchmark, engine):
    assert _run(benchmark, engine, J2, multi_queue=True) == 200


def test_table1_j3_n_seed_set(benchmark, engine):
    assert _run(benchmark, engine, J3) == 1326
