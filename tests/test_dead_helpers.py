"""No private helper of the package is left without a caller.

The scan reads every ``src/lcak/*.py`` with ``ast``.  A private definition is
a module-level function or class, or a method of a module-level class, whose
name starts with an underscore and is not a dunder.  It counts as used when
its name appears anywhere in the package as a name, an attribute or a string
constant (``getattr``, ``monkeypatch`` targets); its own ``def`` or ``class``
line is not such an appearance.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lcak"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dead_helpers(sources):
    """``module:line: name`` of every private definition in ``sources`` (module
    name -> text) whose name is used nowhere in them, in order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    hits = []
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, defs) and _private(d.name) and d.name not in used:
                    hits.append(f"{module}:{d.lineno}: {d.name}")
    return hits


def test_scanner_flags_only_unused_private_definitions():
    a = ("def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
         "class K:\n    def _coerce(self):\n        pass\n"
         "    def _kept(self):\n        return self._kept_too()\n"
         "    def _kept_too(self):\n        return getattr(self, '_by_name')\n"
         "    def _by_name(self):\n        pass\n"
         "    def __init__(self):\n        pass\n\n"
         "class _Unused:\n    pass\n")
    b = "from .a import K, _used\n\ndef public():\n    return _used(), K()._kept()\n"
    assert dead_helpers({"a.py": a, "b.py": b}) == [
        "a.py:4: _dead", "a.py:8: _coerce", "a.py:19: _Unused"]


def test_no_private_helper_of_the_package_is_dead():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 10
    assert dead_helpers(sources) == []
