"""Print the median time of one exact report on generic almost abelian members, by dimension.

    PYTHONPATH=src python3 tools/dim_scaling.py

For each dimension 4, 6, 8, 10, 12 and 14 this draws five generic exact
members (a, b, v, A) of :class:`lcak.AlmostAbelianParams`, every entry k/d with
|k| <= 3 and 1 <= d <= 3, from one fixed seed, and times
``build_almost_abelian`` and ``run_report`` on each, after one untimed report.
It prints the median per dimension, and exits 1 if any report's
``all_checks_pass`` is false.  It takes a few seconds.
"""
from __future__ import annotations

import random
import statistics
import sys
import time
from fractions import Fraction

from lcak import AlmostAbelianParams, build_almost_abelian, run_report

DIMS = (4, 6, 8, 10, 12, 14)
MEMBERS = 5
SEED = 0
ENTRIES = sorted({Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3)})


def generic_member(rng, dim):
    m, pick = dim - 2, lambda: rng.choice(ENTRIES)
    return AlmostAbelianParams(dim // 2, pick(), [pick() for _ in range(m)],
                               [pick() for _ in range(m)],
                               [[pick() for _ in range(m)] for _ in range(m)])


def report_ms(params):
    """Milliseconds for one report on ``params``, and whether all its checks pass."""
    start = time.perf_counter()
    report = run_report(build_almost_abelian(params)[1])
    return (time.perf_counter() - start) * 1e3, report.all_checks_pass


def main():
    rng = random.Random(SEED)
    report_ms(generic_member(rng, DIMS[0]))
    failed = 0
    print("dim  median_ms  members")
    for dim in DIMS:
        runs = [report_ms(generic_member(rng, dim)) for _ in range(MEMBERS)]
        failed += sum(not ok for _, ok in runs)
        print(f"{dim:3d}  {statistics.median(ms for ms, _ in runs):9.2f}  {MEMBERS:7d}")
    if failed:
        print(f"{failed} report(s) failed all_checks_pass", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
