"""The README's Python examples run as written, and its command-line
synopsis lists every option the parser accepts."""

import re
from pathlib import Path

import pytest

from toricqet.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run_in_order():
    # one namespace: a later block may use names an earlier one defined
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def synopsis() -> dict:
    """Subcommand -> its synopsis entry: the `toricqet NAME` line of the
    "Command line" block plus the indented lines that continue it."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.MULTILINE | re.DOTALL).group(1)
    entries = {}
    for line in block.splitlines():
        if line.startswith("toricqet "):
            name = line.split()[1]
            entries[name] = line
        else:
            entries[name] += " " + line.strip()
    return entries


def subparsers() -> dict:
    return build_parser().subcommands


@pytest.mark.parametrize("command", sorted(subparsers()))
def test_synopsis_lists_every_option(command):
    entry = synopsis()[command]
    options = [opt for action in subparsers()[command]._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"]
    missing = [opt for opt in options if not re.search(rf"\[{re.escape(opt)}[\] ]", entry)]
    assert not missing, f"README synopsis of {command} lacks {missing}"
