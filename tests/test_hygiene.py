"""Source hygiene: every name a module imports is used by that module,
and every private name the package defines is used by the package.

Stdlib only.  Each module of the package except `__init__.py` (which
imports purely to re-export) is parsed, and every name bound by an import
statement must be loaded somewhere in the same module.  A private
module-level function, class or constant, or a private method, must be
read somewhere in the package outside its own definition.
"""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "epicore"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in loaded)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_reports_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b (line 2)", "os (line 1)"]


def _reads(tree) -> Counter:
    # names loaded, attributes read and names imported
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree):
    # (node, name) for private module-level functions, classes and
    # constants, and private methods of module-level classes
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield node, t.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item, f"{node.name}.{item.name}"


def _dead_private_names(sources: dict) -> list:
    """Private names defined in `sources` (module name -> text) that no
    module reads outside the definition itself."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = Counter()
    for tree in trees.values():
        reads.update(_reads(tree))
    dead = []
    for mod, tree in trees.items():
        for node, name in _definitions(tree):
            short = name.rpartition(".")[2]
            if _private(short) and reads[short] - _reads(node)[short] <= 0:
                dead.append(f"{mod}: {name} (line {node.lineno})")
    return sorted(dead)


def test_every_private_name_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _dead_private_names(sources) == []


def test_scan_reports_a_dead_private_name():
    a = ("from b import _shared\n"
         "_LIMIT = 3\n_SPARE = 4\n"
         "def _live():\n    return _LIMIT\n"
         "def _loop(n):\n    return _loop(n - 1)\n"
         "class _Box:\n"
         "    def _used(self):\n        return 1\n"
         "    def _unused(self):\n        return 0\n"
         "_live(); _Box()._used(); _shared()\n")
    b = "def _shared():\n    pass\ndef _orphan():\n    pass\n"
    assert _dead_private_names({"a.py": a, "b.py": b}) == [
        "a.py: _Box._unused (line 11)", "a.py: _SPARE (line 3)",
        "a.py: _loop (line 6)", "b.py: _orphan (line 3)"]
