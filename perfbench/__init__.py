"""Benchmark for picband: see README.md in this directory."""
