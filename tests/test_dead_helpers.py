"""No helper of the package is left without a caller, and none has only tests.

The scan reads every ``src/lcak/*.py`` with ``ast``.  A name counts as used
where it appears as a name, an attribute or a string constant (``getattr``
and ``monkeypatch`` targets, ``lcak.__all__`` entries, the benchmark's traced
names); a ``def`` or ``class`` line is not such an appearance.

* A private definition is a module-level function or class, or a method of a
  module-level class, whose name starts with an underscore and is not a
  dunder.  It must be used somewhere in the package.
* A public definition is a module-level function or class whose name does
  not start with an underscore.  It must be used in the package, in
  ``demos/*.py`` or in ``perfbench/**/*.py``: a helper that only tests call
  belongs in ``tests/``.
* A public member is a method or property of a module-level class whose name
  does not start with an underscore.  It must be used in the package, the
  demos, the benchmark, ``tools/*.py`` or ``tests/**/*.py``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lcak"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _used(trees):
    """Every name, attribute and string constant in ``trees``."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def dead_helpers(sources):
    """``module:line: name`` of every private definition in ``sources`` (module
    name -> text) whose name is used nowhere in them, in order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = _used(trees.values())
    hits = []
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, DEFS) and _private(d.name) and d.name not in used:
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


def definitions_only_tests_use(sources, users):
    """``module:line: name`` of every public module-level definition in
    ``sources`` (module name -> text) whose name is used neither in them nor
    in ``users`` (file name -> text), in order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = _used([*trees.values(), *(ast.parse(text) for text in users.values())])
    return [f"{module}:{node.lineno}: {node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, DEFS) and not node.name.startswith("_")
            and node.name not in used]


def test_scanner_flags_public_definitions_only_tests_use():
    a = ("def inner():\n    pass\n\ndef outer():\n    return inner()\n\n"
         "def exported():\n    pass\n\ndef shown():\n    pass\n\n"
         "def traced():\n    pass\n\ndef helper():\n    pass\n\n"
         "class Sample:\n    def method(self):\n        pass\n\n"
         "def _private():\n    pass\n")
    init = "from .a import exported, outer\n__all__ = ['exported', 'outer']\n"
    demo = "import lcak\nlcak.a.shown()\n"
    bench = "SPANS = {'a.traced': ('a', None, 'traced')}\n"
    got = definitions_only_tests_use({"__init__.py": init, "a.py": a},
                                     {"demo.py": demo, "bench.py": bench})
    assert got == ["a.py:16: helper", "a.py:19: Sample"]


def test_no_public_definition_of_the_package_is_test_only():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    users = {str(path): path.read_text(encoding="utf-8")
             for path in [*sorted((ROOT / "demos").glob("*.py")),
                          *sorted((ROOT / "perfbench").rglob("*.py"))]}
    assert len(sources) > 10 and len(users) > 5
    assert definitions_only_tests_use(sources, users) == []


def unused_public_members(sources, users):
    """``module:line: Class.name`` of every public method or property of a
    module-level class in ``sources`` (module name -> text) whose name is used
    neither in them nor in ``users`` (file name -> text), in order."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = _used([*trees.values(), *(ast.parse(text) for text in users.values())])
    return [f"{module}:{d.lineno}: {node.name}.{d.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef) for d in node.body
            if isinstance(d, DEFS) and not d.name.startswith("_") and d.name not in used]


def test_scanner_flags_public_members_no_file_uses():
    a = ("class K:\n    def called(self):\n        pass\n\n"
         "    @property\n    def read(self):\n        return 1\n\n"
         "    def tested(self):\n        pass\n\n"
         "    def unused(self):\n        pass\n\n"
         "    @property\n    def unread(self):\n        return 2\n\n"
         "    def __len__(self):\n        return 0\n\n"
         "    def _private(self):\n        pass\n\n"
         "def unused_function():\n    return K().called()\n")
    tool = "from lcak.a import K\nprint(K().read)\n"
    test = "def test_k():\n    getattr(K(), 'tested')()\n"
    got = unused_public_members({"a.py": a}, {"tool.py": tool, "test_a.py": test})
    assert got == ["a.py:12: K.unused", "a.py:16: K.unread"]


def test_no_public_member_of_the_package_is_unused():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    users = {str(path): path.read_text(encoding="utf-8")
             for folder in ("demos", "perfbench", "tools", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    assert len(sources) > 10 and len(users) > 20
    assert unused_public_members(sources, users) == []
