"""Every name a package or test module imports is used in that module, and
every import sits at module level."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mrfdet"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def nested_imports(source):
    """Line numbers of imports inside a function or class body."""
    tree = ast.parse(source)
    return sorted({node.lineno
                   for scope in ast.walk(tree)
                   if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   for node in ast.walk(scope)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_detector_finds_an_unused_name():
    source = "import os\nimport sys\nfrom numpy import pi, e as euler\nprint(sys.argv, euler)\n"
    assert unused_imports(source) == ["os", "pi"]


def test_detector_finds_a_nested_import():
    source = ("import os\n\ndef f():\n    from .dataset import info\n    return info\n\n"
              "class C:\n    def g(self):\n        import sys\n")
    assert nested_imports(source) == [4, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []
