"""Demos 01-05 print the same bytes as their recorded stdout.

Each demo runs in a fresh interpreter with ``src`` on ``PYTHONPATH``.  Demo
06 is left out: its float residuals legitimately move by round-off.  To
record a demo's output after an intended change, run it from the root of
the checkout with ``PYTHONPATH=src python demos/<name>.py`` and redirect
stdout into ``tests/golden/demos/<name>.txt``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "demos"
DEMOS = ["01_worked_example", "02_exterior_calculus", "03_connection_curvature",
         "04_condition_checkers", "05_classification"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_recorded_bytes(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_bytes()
