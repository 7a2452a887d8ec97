"""The exact array representation is chosen in ``arith.py`` alone.

Every other module writes ``a @ b``, ``x - y`` or ``field.einsum(...)`` and
gets a ``QArray`` in exact mode; this test fails when a module outside
``arith.py`` reaches for integer numerators or builds Fractions itself.
"""
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lcak"
PATTERN = re.compile(r"Numerators|_num\b|\.numerators\(|\.fractions\(|matmul_num|einsum_num"
                     r"|Fraction\(")


def test_only_arith_chooses_the_exact_representation():
    modules = sorted(SRC.glob("*.py"))
    assert any(path.name == "arith.py" for path in modules)
    hits = [f"{path.name}:{no}: {line.strip()}"
            for path in modules if path.name != "arith.py"
            for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if PATTERN.search(line)]
    assert hits == []
