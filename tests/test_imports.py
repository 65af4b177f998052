"""Every name a package module or a test module imports is used there,
and every exported name and every defined function is read outside the
tests."""
import ast
import re
from pathlib import Path

import pytest

import dapt

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "dapt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))

# exported names read by nothing outside the tests, each kept for a reason
UNREAD_EXPORTS = {
    # the closed form of the transport; deleting it waits on ROADMAP item 9
    "wz_transport",
}


# defined functions read by nothing outside the tests, each kept for a reason
UNREAD_FUNCTIONS = {
    # the closed form of the transport; deleting it waits on ROADMAP item 9
    "wz_transport",
}


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read in the module."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b\nprint(a)\n") \
        == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_test_imports(path):
    assert unused_imports(path.read_text()) == []


def read_names(source: str) -> set:
    """Names and attribute names the module reads (load context)."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def names_read_outside_tests() -> set:
    """Names read by the package modules other than ``__init__.py``, by
    ``bench/*.py`` and by the README's ``python`` blocks."""
    readme = (ROOT / "README.md").read_text()
    sources = [p.read_text() for p in MODULES]
    sources += [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    return set().union(*map(read_names, sources))


def test_public_names_are_read_outside_tests():
    read = names_read_outside_tests()
    assert {name for name in dapt.__all__ if name not in read} \
        == UNREAD_EXPORTS


def defined_functions(source: str) -> set:
    """Functions defined at module level or in a module-level class body,
    less the dunder methods."""
    body = ast.parse(source).body
    body += [n for c in body if isinstance(c, ast.ClassDef) for n in c.body]
    return {n.name for n in body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))}


def test_scan_finds_defined_functions():
    source = ("def f(): pass\nclass C:\n    def m(self):\n"
              "        def inner(): pass\n    def __init__(self): pass\n")
    assert defined_functions(source) == {"f", "m"}


def test_defined_functions_are_read_outside_tests():
    """Every function and method the package defines is read somewhere
    outside the tests, as a load-context name or attribute. The scan
    matches by name alone, so a dead method that shares its name with a
    live one (say, a second ``frames``) is not caught."""
    defined = set().union(*(defined_functions(p.read_text())
                            for p in SRC.glob("*.py")))
    assert defined - names_read_outside_tests() == UNREAD_FUNCTIONS
