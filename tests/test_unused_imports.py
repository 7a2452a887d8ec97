"""No module of the package imports a name at top level that it never uses.

The scan reads each ``src/lcak/*.py`` with ``ast``: a name bound by a
top-level ``import`` or ``from ... import`` counts as used when it appears as
a name anywhere in the module (an attribute chain starts with one) or is
listed in the module's ``__all__``.  ``from __future__`` imports are exempt.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lcak"


def unused_imports(source):
    """Names bound by top-level imports of ``source`` and never used, in order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [(name, line) for name, line in bound if name not in used]


def test_scanner_flags_only_unused_imports():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == [("os", 1), ("tau", 3)]
    source = "from __future__ import annotations\nfrom .x import A\n__all__ = ['A']\n"
    assert unused_imports(source) == []


def test_no_module_has_an_unused_top_level_import():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    hits = [f"{path.name}:{line}: {name}" for path in modules
            for name, line in unused_imports(path.read_text(encoding="utf-8"))]
    assert hits == []
