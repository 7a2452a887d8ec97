"""Print one sha256 over the fuzz summaries, to check that a change keeps the fuzzer's output.

    PYTHONPATH=src python3 tools/fuzz_digest.py
    PYTHONPATH=../parent/src python3 tools/fuzz_digest.py

The hash is fed ``summary_to_json(fuzz(seed, 12, family))`` in UTF-8 for
each family of ``lcak.fuzzing.FAMILIES`` and seeds 0 .. 15, family-major:
every seed of the first family, then of the next.  It takes about a second.
``lcak`` is imported from ``PYTHONPATH``, so the second line hashes another
checkout's fuzzer with this script.  Compare two checkouts on one machine:
float round-off, and so a summary's worst residuals, can differ under
another BLAS.
"""
from __future__ import annotations

import hashlib

from lcak.fuzzing import FAMILIES, fuzz, summary_to_json


def fuzz_digest(seeds=range(16), count=12):
    """The hex sha256 of the summaries, family-major."""
    h = hashlib.sha256()
    for family in FAMILIES:
        for seed in seeds:
            h.update(summary_to_json(fuzz(seed, count, family)).encode("utf-8"))
    return h.hexdigest()


def main():
    print(fuzz_digest())


if __name__ == "__main__":
    main()
