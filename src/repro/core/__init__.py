"""CTP evaluation algorithms (§4) and supporting machinery."""
from .api import (  # noqa: F401
    ALGORITHMS, ALL_NODES, PRESETS, bft, bft_am, bft_m, esp, gam, lesp, moesp,
    molesp,
)
from .engine import RootedSearch, SearchConfig, SearchOutcome  # noqa: F401
from .filters import CTPFilters  # noqa: F401
from .tree import ResultTree  # noqa: F401
