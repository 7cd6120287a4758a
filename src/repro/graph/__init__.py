"""Graph substrate: data model, paper benchmark generators, random graphs."""
from .model import Adj, Edge, GraphBundle, LocalGraph  # noqa: F401
