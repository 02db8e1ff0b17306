"""The README's library example and command lines run against the package as it is."""

import re
import shlex
from pathlib import Path

from ripcert.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def readme_command_lines() -> list[list[str]]:
    """Every ``ripcert ...`` line of the README's sh blocks, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "ripcert":
                commands.append(argv[1:])
    return commands


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch):
    # the lines run in order, since later ones read the files earlier ones write
    monkeypatch.chdir(tmp_path)
    commands = readme_command_lines()
    assert commands, "README has no ripcert command line"
    for argv in commands:
        assert main(argv) == 0, argv
