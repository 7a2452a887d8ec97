"""Benchmark of the lcak report pipeline; run it with ``python3 perfbench/run.py``."""
