"""Baseline systems (§5.2 substitutes): Spark path/reachability dataflows
and the DPBF group-Steiner solver standing in for QGSTP."""
from .dpbf import DPBFStats, dpbf  # noqa: F401
from .paths import (  # noqa: F401
    enumerate_paths, reachable_pairs, release, stitch_paths_m3,
)
