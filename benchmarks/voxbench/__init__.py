"""Benchmark harness for voxelmatch: workloads, order statistics and span tracing.

``benchmarks/run.py`` is the entry point; see ``benchmarks/README.md``.
"""
