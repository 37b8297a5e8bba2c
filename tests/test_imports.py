"""Every top-level import of a package module is used in that module,
every top-level definition is used by the package, the elimination
kernels serve only the brute-force ray oracle, and only `reproduce` loads
the oracles."""

import ast
import os
import subprocess
import sys
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
    assert found == {("oracles.py", "kernel_basis", "rref"),
                     ("oracles.py", "brute_force_rays", "kernel_basis")}


def imports_oracles(source: str) -> bool:
    """Whether any import statement of the module, at any level, names the
    `oracles` module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}"
                     for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any("oracles" in name.split(".") for name in names):
            return True
    return False


def test_checker_finds_oracle_imports():
    for source in ("from .oracles import det\n",
                   "from . import cones, oracles\n",
                   "import minorcones.oracles as o\n",
                   "def f():\n    from minorcones import oracles\n"):
        assert imports_oracles(source), source
    assert not imports_oracles("from .exact import rank\nimport oracle\n")


def test_only_reproduce_imports_the_oracles():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    importers = {name for name, source in sources.items()
                 if imports_oracles(source)}
    assert importers == {"reproduce.py"}
    # The same check on a package whose cones imports them fails.
    sources["cones.py"] += "from .oracles import brute_force_rays\n"
    assert {name for name, source in sources.items()
            if imports_oracles(source)} != {"reproduce.py"}


def test_importing_the_package_leaves_the_oracles_unloaded():
    script = ("import sys, minorcones\n"
              "print(sorted(m for m in sys.modules if 'oracles' in m))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Top-level definitions that no package module refers to, and why each
# stays in the package.
UNREFERENCED = {
    ("polyarith", "principal_minor_poly"):
        "perfbench/tracing.py wraps it by name as the polyarith.minor span",
    ("probe", "sample_pd"):
        "perfbench's fiedler job and probes warm-up draw whole batches with "
        "it, and perfbench/tracing.py wraps it as the probe.sample span",
    ("nullity", "catalog_n4"):
        "perfbench's rays warm-up calls it to fill the D_4 rows' cache, and "
        "perfbench/tracing.py wraps it as the nullity.catalog span",
    ("nullity", "d5_constraint_set"):
        "perfbench/tracing.py wraps it as the nullity.catalog span",
    ("constants", "R1"): "named data, beside Q() and counterexample_E4()",
    ("constants", "R2"): "named data, beside Q() and counterexample_E4()",
    ("constants", "R3"): "named data, beside Q() and counterexample_E4()",
}


def unreferenced(sources):
    """(module, name) for each top-level function and class of the modules
    in `sources` (module name -> source) that no statement outside its own
    definition names: as a bare name, an attribute or an imported name."""
    named = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            named.append((module, top, names))
    return {(module, top.name) for module, top, _ in named
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and not any(top.name in names
                        for _, other, names in named if other is not top)}


def test_checker_finds_unreferenced_definitions():
    sources = {"a": "def f():\n    return f()\ndef g():\n    pass\n"
                    "class C:\n    pass\ndef h():\n    pass\n",
               "b": "from .a import g\nimport a\nx = a.C\n"}
    assert unreferenced(sources) == {("a", "f"), ("a", "h")}


def test_every_definition_is_used_by_the_package():
    # A helper only the tests call belongs in the tests.  __init__'s
    # imports count, so an exported name is used.
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(sources) == set(UNREFERENCED)
