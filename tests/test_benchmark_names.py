"""The benchmark calls the package by name.

``perfbench/tracer.py`` replaces each ``(owner, attribute)`` it lists, and
``perfbench/bench.py`` builds each workload's campaign config and CLI command
line from the package's own names; a renamed or deleted attribute, config
field or flag would only show up when a benchmark run fails.  These checks
catch it in the tier-1 suite.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

from genchol import bounds, cli, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("bench")


def test_traced_functions_resolve(tracer):
    for owner, attr, span in tracer.TRACED_FUNCTIONS:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr}"


def test_traced_methods_defined_on_class(tracer):
    for cls, attr, span in tracer.TRACED_METHODS:
        assert attr in cls.__dict__, f"{span}: {cls.__name__}.{attr}"


def test_workload_commands_parse(bench, tmp_path):
    parser = cli._build_parser()
    for name, wl in bench.WORKLOADS.items():
        args = parser.parse_args(wl.cli_argv(2, 5, tmp_path / f"{name}.csv"))
        assert args.command == wl.command, name


def test_workload_configs_build(bench):
    for name, wl in bench.WORKLOADS.items():
        cfg = dataclasses.replace(wl.config, trials=1, seed=5)
        assert (cfg.trials, cfg.seed) == (1, 5), name
        assert callable(wl.campaign), name


def test_violation_slack_resolves():
    # perfbench/checks.py takes its absolute floor from the harness, which
    # re-exports the one defined with the bound evaluators
    assert harness.VIOLATION_SLACK is bounds.VIOLATION_SLACK
