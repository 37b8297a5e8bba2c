"""Every top-level import of a package module is used in that module, and
the elimination kernels serve only the brute-force ray oracle."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minorcones"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by the module's top-level imports that no expression in
    the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    source = "import os\nfrom a.b import c, d as e\nprint(os, e.f)\n"
    assert unused_imports(source) == [(2, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def callers(source: str, names):
    """(top-level definition, callee) for each call of a name in `names`,
    bare or as an attribute; "<module>" for a call outside definitions."""
    found = set()
    for top in ast.parse(source).body:
        label = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in names:
                    found.add((label, name))
    return found


def test_checker_finds_calls_at_every_level():
    source = ("x = rref(a)\nclass C:\n    def m(self):\n"
              "        return exact.kernel_basis(b)\n")
    assert callers(source, {"rref", "kernel_basis"}) == {
        ("<module>", "rref"), ("C", "kernel_basis")}


def test_elimination_serves_only_the_brute_force_oracle():
    names = {"rref", "kernel_basis"}
    found = {(path.name, fn, name) for path in MODULES
             for fn, name in callers(path.read_text(), names)}
    assert found == {("exact.py", "kernel_basis", "rref"),
                     ("cones.py", "brute_force_rays", "kernel_basis")}
