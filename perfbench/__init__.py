"""Benchmark of the cmssl package; see perfbench/README.md."""
