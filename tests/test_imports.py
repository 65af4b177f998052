"""Every name a package module or a test module imports is used there,
and every exported name is read outside the tests."""
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
    # acceptance test 6 checks the Clifford algebra of GAMMA against it
    "PI",
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


def test_public_names_are_read_outside_tests():
    readme = (ROOT / "README.md").read_text()
    sources = [p.read_text() for p in MODULES]
    sources += [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    read = set().union(*map(read_names, sources))
    assert {name for name in dapt.__all__ if name not in read} \
        == UNREAD_EXPORTS
