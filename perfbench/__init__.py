"""Benchmark for the minorcones package: seeded closed-loop workloads,
independent exact verification, and opt-in per-layer tracing.

Run `python3 perfbench/run.py --help` from the repository root.
"""
