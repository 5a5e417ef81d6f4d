"""Every ``genchol`` module imports in a fresh interpreter, every name it
imports is used, and no module imports another's private name.

A public name is a top-level definition without a leading underscore; there
are no ``__all__`` lists.  So a name that one module takes from another must
be public, and an import that a deletion leaves behind, which fails nothing
at all, is checked on the source.  The package top level exports nothing:
callers import the modules.
"""

import ast
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

# found without importing the package, so a broken ``__init__`` fails the
# tests below instead of their collection
PACKAGE_PATH = importlib.util.find_spec("genchol").submodule_search_locations
MODULES = sorted(info.name for info in pkgutil.iter_modules(PACKAGE_PATH))
SOURCES = sorted(Path(PACKAGE_PATH[0]).glob("*.py"))


def test_package_imports_in_a_fresh_interpreter():
    code = "import " + ", ".join(f"genchol.{name}" for name in MODULES)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def _imported_names(tree) -> set[str]:
    """Names bound by the module's top-level imports, ``__future__`` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(tree) - used
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_names_from_other_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = sorted(
        f"{node.module}.{a.name}" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.split(".")[0] == "genchol")
        for a in node.names if a.name.startswith("_")
    )
    assert not private, f"{path.name} imports private names: {private}"
