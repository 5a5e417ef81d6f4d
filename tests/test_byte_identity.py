"""``tools/byte_identity.py`` passes only when exactly the named commands move.

The CLI runs are replaced by canned results, so these checks exercise the
verdicts, not the package.
"""

import importlib
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SAME = (0, b"out", b"", {"a.csv": b"1\n"})
MOVED = (0, b"out", b"", {"a.csv": b"2\n"})


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    module = importlib.import_module("byte_identity")
    monkeypatch.setattr(module, "COMMANDS", ["verify", "backward"])
    monkeypatch.setattr(module, "export_src", lambda rev, dest: dest)
    return module


def moving(tool, monkeypatch, *moved):
    """Make the working tree's run of each command in ``moved`` differ."""
    monkeypatch.setattr(
        tool, "run", lambda tree, command: MOVED if tree == tool.ROOT and command in moved else SAME)


@pytest.mark.parametrize("moved, expected, status", [
    ((), [], 0),
    (("verify",), [], 1),
    (("verify",), ["verify"], 0),
    ((), ["verify"], 1),
    (("verify", "backward"), ["verify"], 1),
], ids=["none-moved", "unnamed-moved", "named-moved", "named-unmoved", "named-and-unnamed-moved"])
def test_exit_status(tool, monkeypatch, capsys, moved, expected, status):
    moving(tool, monkeypatch, *moved)
    argv = ["--parent", "REV"] + [arg for c in expected for arg in ("--expect-diff", c)]
    assert tool.main(argv) == status
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"{2 - len(moved)} of 2 commands identical to REV")


def test_unknown_expected_command_is_refused(tool, monkeypatch):
    moving(tool, monkeypatch)
    with pytest.raises(SystemExit) as exc:
        tool.main(["--parent", "REV", "--expect-diff", "sweep"])
    assert exc.value.code == 2
