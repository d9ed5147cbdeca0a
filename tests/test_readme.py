"""The README's CLI examples that state their output print it."""

import re
import shlex
from pathlib import Path

import pytest

from conftest import run_cli

ROOT = Path(__file__).resolve().parent.parent
# a command, then "# -> " and the first line it prints
EXAMPLE = re.compile(r"^pseudofuzzy (.+?)\s+# -> (.+)$", re.MULTILINE)
EXAMPLES = EXAMPLE.findall((ROOT / "README.md").read_text(encoding="utf-8"))


def test_readme_has_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected):
    # paths in the examples are relative to the repository root
    result = run_cli(shlex.split(command), cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode().splitlines()[0] == expected
