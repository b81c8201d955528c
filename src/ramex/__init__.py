"""Exact construction and certification of bipartite Ramanujan multigraphs."""

__version__ = "0.1.0"
