"""``tools/bench_record.py``: the ``--quick`` record has the full schema, and
every committed ``BENCH_*.json`` is a full record.

No assertion reads a time: the tool measures, tier 1 only checks its shape.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    return importlib.import_module("bench_record")


def test_quick_record_has_the_schema(tool, tmp_path):
    out = tmp_path / "bench.json"
    assert tool.main(["--quick", "--pr", "0", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    tool.check(rec)
    assert rec["quick"] is True
    assert rec["tier1"] is rec["perfbench"] is rec["experiments"] is None
    assert set(rec["git"]) == {"head", "measured", "dirty"}
    assert [e["name"] for e in rec["layers"]] == [
        "factorize", "normwise_init", "reports_per_level", "build_w+w_inverse_norm",
        "componentwise_report", "compensated_residual"]
    assert [e["name"] for e in rec["kernels"]] == [
        "singular_values", "singular_values_stack7", "spectral_norm",
        "spectral_norm_stack7", "sym_eigenvalues", "lower_tri_solve"]


def test_check_refuses_a_short_or_untimed_record(tool):
    rec = {"pr": 0, "quick": True, "machine": {}, "git": {}, "tier1": None,
           "perfbench": None, "experiments": None, "layers": [], "kernels": []}
    tool.check(rec)
    with pytest.raises(ValueError, match="fields"):
        tool.check({k: v for k, v in rec.items() if k != "kernels"})
    with pytest.raises(ValueError, match="bad timing"):
        tool.check({**rec, "layers": [{"name": "factorize", "ms": 0.0}]})
    with pytest.raises(ValueError, match="full record"):
        tool.check({**rec, "quick": False})


def test_committed_records_are_full(tool):
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        rec = json.loads(path.read_text())
        tool.check(rec)
        assert rec["quick"] is False, path.name
        assert None not in (rec["tier1"], rec["perfbench"], rec["experiments"]), path.name


def test_experiments_are_the_readme_commands(tool):
    commands = tool.readme_experiments(ROOT)
    assert [c.split()[1] for c in commands] == ["verify", "backward", "sweep", "sweep"]
