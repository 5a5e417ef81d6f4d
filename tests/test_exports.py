"""Every ``genchol`` module imports in a fresh interpreter, every name it
exports resolves, and every name it imports is used.

A deleted or renamed function that stays in an ``__all__`` list would
otherwise only fail for the first caller of ``from genchol.<module> import
*``.  An import that a deletion leaves behind fails nothing at all, so it is
checked on the source.  The package top level exports nothing: callers
import the modules.
"""

import ast
import importlib
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


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"genchol.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"genchol.{name}.__all__ names missing attributes: {missing}"


def _imported_names(tree) -> set[str]:
    """Names bound by the module's top-level imports, ``__future__`` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _all_list(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(tree) - used - _all_list(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"
