"""Named entry points for the §4 CTP evaluation algorithms."""
from __future__ import annotations

from dataclasses import replace

from ..graph.model import LocalGraph
from .bft import BFTConfig, BFTSearch
from .engine import ALL_NODES, RootedSearch, SearchConfig, SearchOutcome
from .filters import CTPFilters

__all__ = [
    "ALL_NODES", "bft", "bft_m", "bft_am", "gam", "esp", "moesp", "lesp",
    "molesp", "ALGORITHMS", "PRESETS",
]


def bft(g, seed_sets, filters: CTPFilters = CTPFilters(), **_ignored) -> SearchOutcome:
    """§4.1 breadth-first baseline (complete; minimizes results)."""
    return BFTSearch(g, seed_sets, BFTConfig("none"), filters).run()


def bft_m(g, seed_sets, filters: CTPFilters = CTPFilters(), **_ignored) -> SearchOutcome:
    """§4.3 BFT with single-level Merge."""
    return BFTSearch(g, seed_sets, BFTConfig("once"), filters).run()


def bft_am(g, seed_sets, filters: CTPFilters = CTPFilters(), **_ignored) -> SearchOutcome:
    """§4.3 BFT with aggressive Merge."""
    return BFTSearch(g, seed_sets, BFTConfig("aggressive"), filters).run()


# The §4 rooted algorithms are one engine under these SearchConfig presets.
PRESETS = {
    "GAM": SearchConfig(),
    "ESP": SearchConfig(esp=True),
    "MoESP": SearchConfig(esp=True, mo=True),
    "LESP": SearchConfig(esp=True, lesp=True),
    "MoLESP": SearchConfig(esp=True, mo=True, lesp=True),
}


def _rooted(name: str, doc: str):
    preset = PRESETS[name]

    def run(g: LocalGraph, seed_sets: list, filters: CTPFilters = CTPFilters(), *,
            rng_seed=None, multi_queue=False, priority="size") -> SearchOutcome:
        cfg = replace(preset, rng_seed=rng_seed, multi_queue=multi_queue,
                      priority=priority)
        return RootedSearch(g, seed_sets, cfg, filters).run()

    run.__name__ = run.__qualname__ = name.lower()
    run.__doc__ = doc
    return run


gam = _rooted("GAM", "§4.2 Grow-and-Aggressive-Merge (complete; no edge-set pruning).")
esp = _rooted("ESP", "§4.4 GAM + edge-set pruning (complete only for m <= 2).")
moesp = _rooted("MoESP", "§4.5 Merge-oriented ESP (finds all 2-piecewise-simple results).")
lesp = _rooted("LESP", "§4.6 Limited edge-set pruning (finds all (u,n)-rooted merges).")
molesp = _rooted("MoLESP", "§4.7 MoLESP — complete for m <= 3 and for Property-9 results.")


ALGORITHMS = {
    "BFT": bft,
    "BFT-M": bft_m,
    "BFT-AM": bft_am,
    "GAM": gam,
    "ESP": esp,
    "MoESP": moesp,
    "LESP": lesp,
    "MoLESP": molesp,
}
