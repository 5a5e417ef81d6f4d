"""Every ``genchol`` command in the README's code blocks parses.

The README's Experiments section is the only driver of the paper's
experiments, so a renamed or removed flag must fail here and not first in a
reader's shell.
"""

import shlex
from pathlib import Path

import pytest

from genchol import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    commands = []
    in_block = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("genchol "):
            commands.append(line)
    return commands


def test_readme_has_the_experiment_commands():
    subcommands = {shlex.split(c)[1] for c in readme_commands()}
    assert {"verify", "backward", "sweep"} <= subcommands


@pytest.mark.parametrize("command", readme_commands())
def test_command_parses(command):
    cli._build_parser().parse_args(shlex.split(command, comments=True)[1:])
