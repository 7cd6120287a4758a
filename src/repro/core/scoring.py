"""Score functions for SCORE sigma [TOP k] (§2).

Requirement (R2): CTP search is orthogonal to the score; any callable
``(ResultTree, LocalGraph) -> float`` works (higher is better). These are
representative members of the families cited in §6."""
from __future__ import annotations

from ..graph.model import LocalGraph
from .tree import ResultTree


def size_score(t: ResultTree, g: LocalGraph) -> float:
    """Smaller trees are better — the classic Steiner-ish cost."""
    return 1.0 / (1.0 + t.size)


def label_diversity(t: ResultTree, g: LocalGraph) -> float:
    """Journalistic 'interestingness' proxy: fraction of distinct edge
    labels (the §1 example prefers heterogeneous connections over the
    shortest hop through a country node)."""
    if not t.edges:
        return 0.0
    labels = {g.edges[e].label for e in t.edges}
    return len(labels) / len(t.edges)


def specificity_score(t: ResultTree, g: LocalGraph) -> float:
    """Prefers trees through low-degree nodes (specific entities) over
    hubs; inverse mean node degree."""
    if not t.nodes:
        return 0.0
    mean_deg = sum(g.degree.get(n, 0) for n in t.nodes) / len(t.nodes)
    return 1.0 / (1.0 + mean_deg)


# The names that EQL's SCORE clause resolves, at parse time.
SCORES = {
    "size": size_score,
    "diversity": label_diversity,
    "specificity": specificity_score,
}
