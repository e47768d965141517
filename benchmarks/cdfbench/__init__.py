"""Benchmark harness for the cdfsched package; see ``benchmarks/run.py``."""
