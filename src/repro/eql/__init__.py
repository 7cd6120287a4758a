"""EQL evaluation on Spark: BGP compiler and the §3 engine."""
from .bgp import to_sql  # noqa: F401
from .engine import EQLEngine, EQLReport  # noqa: F401
