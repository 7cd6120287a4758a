"""Benchmark: Figure 10 — baseline CTP algorithms (BFT family vs GAM).

Each benchmark runs one representative workload of the sweep; the full
table comes from ``python jobs/run.py fig10``.
"""
import pytest

from repro.core import ALGORITHMS
from repro.core.filters import CTPFilters
from repro.graph import generators as gen

_FILTERS = CTPFilters(timeout_s=10.0)


@pytest.mark.parametrize("algo", ["BFT", "BFT-M", "BFT-AM", "GAM"])
def test_fig10_comb(benchmark, algo):
    b = gen.comb(4, 1, 2, 2)
    out = benchmark.pedantic(
        lambda: ALGORITHMS[algo](b.graph, b.seed_sets, filters=_FILTERS),
        iterations=1, rounds=3,
    )
    assert len(out.results) == 1


@pytest.mark.parametrize("algo", ["BFT", "BFT-M", "GAM"])
def test_fig10_star(benchmark, algo):
    b = gen.star(7, 2)
    out = benchmark.pedantic(
        lambda: ALGORITHMS[algo](b.graph, b.seed_sets, filters=_FILTERS),
        iterations=1, rounds=3,
    )
    assert len(out.results) == 1


@pytest.mark.parametrize("algo", ["BFT", "BFT-M", "BFT-AM", "GAM"])
def test_fig10_line(benchmark, algo):
    b = gen.line(8, 2)
    out = benchmark.pedantic(
        lambda: ALGORITHMS[algo](b.graph, b.seed_sets, filters=_FILTERS),
        iterations=1, rounds=3,
    )
    assert len(out.results) == 1
