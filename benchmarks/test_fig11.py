"""Benchmark: Figure 11 — GAM pruning variants.

Expected shape: MoLESP < GAM on Line/Comb; ESP/LESP fast but find no
results there (incompleteness); Star exercises the LESP exemption.
"""
import pytest

from repro.core import ALGORITHMS
from repro.core.filters import CTPFilters
from repro.graph import generators as gen

_FILTERS = CTPFilters(timeout_s=30.0)
_VARIANTS = ["GAM", "ESP", "MoESP", "LESP", "MoLESP"]


@pytest.mark.parametrize("algo", _VARIANTS)
def test_fig11_line(benchmark, algo):
    b = gen.line(10, 4)
    out = benchmark.pedantic(
        lambda: ALGORITHMS[algo](b.graph, b.seed_sets, filters=_FILTERS),
        iterations=1, rounds=3,
    )
    assert out.stop == "exhausted"


@pytest.mark.parametrize("algo", _VARIANTS)
def test_fig11_comb(benchmark, algo):
    b = gen.comb(5, 1, 2, 2)
    out = benchmark.pedantic(
        lambda: ALGORITHMS[algo](b.graph, b.seed_sets, filters=_FILTERS),
        iterations=1, rounds=3,
    )
    assert out.stop == "exhausted"


@pytest.mark.parametrize("algo", _VARIANTS)
def test_fig11_star(benchmark, algo):
    b = gen.star(8, 2)
    out = benchmark.pedantic(
        lambda: ALGORITHMS[algo](b.graph, b.seed_sets, filters=_FILTERS),
        iterations=1, rounds=3,
    )
    assert len(out.results) == 1  # Property 9 class: every variant finds it
