"""Benchmark of the SpecASR reproduction (see README.md)."""
