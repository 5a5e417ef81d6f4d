"""The benchmark's tracer wraps package functions and methods by name.

``perfbench/tracer.py`` replaces each ``(owner, attribute)`` it lists; a
renamed or deleted attribute would only show up when a traced benchmark run
fails.  These checks catch it in the tier-1 suite.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_traced_functions_resolve(tracer):
    for owner, attr, span in tracer.TRACED_FUNCTIONS:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr}"


def test_traced_methods_defined_on_class(tracer):
    for cls, attr, span in tracer.TRACED_METHODS:
        assert attr in cls.__dict__, f"{span}: {cls.__name__}.{attr}"
