"""Named entry points for the §4 CTP evaluation algorithms."""
from __future__ import annotations

from dataclasses import replace

from ..graph.model import LocalGraph, gc_paused
from .bft import BFTSearch
from .engine import ALL_NODES, CTPSearch, RootedSearch, SearchConfig, SearchOutcome
from .filters import CTPFilters

__all__ = [
    "ALL_NODES", "bft", "bft_m", "bft_am", "gam", "esp", "moesp", "lesp",
    "molesp", "ALGORITHMS", "PRESETS",
]


def _run(search: type[CTPSearch], *args) -> SearchOutcome:
    """Build, run and drop one search with the cyclic GC paused.

    A search allocates several tracked objects per tree it builds and
    makes no reference cycles (see :mod:`.engine`), so the collector's
    passes over its state would find nothing to free. The pause spans the
    search object's whole life: re-enabled while that state is still
    alive, the collector would at once scan it.
    """
    with gc_paused():
        return search(*args).run()


def _bft(name: str, merge: str, doc: str):
    def run(g: LocalGraph, seed_sets: list, filters: CTPFilters = CTPFilters(), *,
            multi_queue=False) -> SearchOutcome:
        if multi_queue:
            raise ValueError(f"{name} takes no multi_queue")
        return _run(BFTSearch, g, seed_sets, merge, filters)

    run.__name__ = run.__qualname__ = name.lower().replace("-", "_")
    run.__doc__ = doc
    return run


bft = _bft("BFT", "none", "§4.1 breadth-first baseline (complete; minimizes results).")
bft_m = _bft("BFT-M", "once", "§4.3 BFT with single-level Merge.")
bft_am = _bft("BFT-AM", "aggressive", "§4.3 BFT with aggressive Merge.")


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
            multi_queue=False) -> SearchOutcome:
        cfg = replace(preset, multi_queue=multi_queue)
        return _run(RootedSearch, g, seed_sets, cfg, filters)

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
