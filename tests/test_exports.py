"""Every name a ``genchol`` module exports resolves.

A deleted or renamed function that stays in an ``__all__`` list, or in the
package's own imports, would otherwise only fail for the first caller of
``from genchol.<module> import *`` or of ``import genchol``.
"""

import importlib
import importlib.util
import pkgutil
import subprocess
import sys

import pytest

# found without importing the package, so a broken ``__init__`` fails the
# tests below instead of their collection
PACKAGE_PATH = importlib.util.find_spec("genchol").submodule_search_locations
MODULES = sorted(info.name for info in pkgutil.iter_modules(PACKAGE_PATH))


def test_package_imports_in_a_fresh_interpreter():
    res = subprocess.run(
        [sys.executable, "-c", "import genchol"], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"genchol.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"genchol.{name}.__all__ names missing attributes: {missing}"
