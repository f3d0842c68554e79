"""README's examples run as written.

The "Library quick start" block is executed as it stands, and each
``noiseamp ...`` line of the "Command line" block goes through
``noiseamp.cli.run`` and must exit 0 with a report on stdout.
"""

import re
import shlex
from pathlib import Path

import pytest

from noiseamp.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the section ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [shlex.split(line)[1:]
            for line in _block("Command line", "sh").splitlines()
            if line.startswith("noiseamp ")]


def test_library_quick_start_runs(capsys):
    exec(compile(_block("Library quick start", "python"), "README.md",
                 "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert len(printed) == 4 and printed[-1] == ""
    assert printed[1].split()[1] == "True"  # the NA certificate is valid


def test_readme_lists_every_command():
    assert sorted({argv[0] for argv in COMMANDS}) == [
        "analyze", "bounds", "certify", "consensus", "simulate", "sweep",
        "tune"]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_exits_0(capsys, argv):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""
