"""Benchmark for raceopt: three workloads run through the ``raceopt`` CLI,
end-to-end clocks, correctness checks and an outside-in per-module trace.

Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
