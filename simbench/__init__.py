"""Benchmark of the serving simulator; see ``simbench/README.md``."""
