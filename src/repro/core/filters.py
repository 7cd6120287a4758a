"""CTP filters (§2, pushed into evaluation per §4.8).

All filters are optional and orthogonal; ``max_built`` is an
implementation-level deterministic budget (a step counter standing in for
wall-clock timeouts in tests, where timing would be flaky)."""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..graph.model import LocalGraph
    from .tree import ResultTree

ScoreFn = Callable[["ResultTree", "LocalGraph"], float]


@dataclass(frozen=True)
class CTPFilters:
    """Filters attached to one CTP, as the parser reads its clause
    (``lang.ast.CTP.filters``) and as the search takes them.

    uni        only trees with a root having directed paths to every seed
    labels     allowed edge labels (None = all)
    max_edges  MAX n — trees of at most n edges
    limit      stop the search after this many results (LIMIT)
    score      SCORE sigma — scores attached to every result
    top_k      TOP k — keep only the k best-scoring results (needs score)
    timeout_s  per-CTP wall-clock timeout T
    max_built  deterministic budget on provenances built (testing aid)
    """

    uni: bool = False
    labels: frozenset[str] | None = None
    max_edges: int | None = None
    limit: int | None = None
    score: ScoreFn | None = None
    top_k: int | None = None
    timeout_s: float | None = None
    max_built: int | None = None

    def __post_init__(self) -> None:
        # The grammar is SCORE sigma [TOP k]: TOP ranks by the score.
        if self.top_k is not None and self.score is None:
            raise ValueError("TOP k needs a SCORE function")
        for name, k in (("limit", self.limit), ("top_k", self.top_k)):
            if k is not None and k < 0:
                raise ValueError(f"{name} must be >= 0, not {k}")

    def over(self, defaults: "CTPFilters") -> "CTPFilters":
        """``defaults`` with each field that this record sets to a
        non-default value overridden by it."""
        kw = {f.name: v for f in fields(self) if (v := getattr(self, f.name)) != f.default}
        return replace(defaults, **kw) if kw else defaults
