"""Let the CLI subprocesses that tests start import the package from src/,
as pytest's own `pythonpath` setting lets the tests themselves, and run
them with run_cli."""

import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def run_cli(argv, stdin=None, **kwargs):
    """`python -m pseudofuzzy argv` in a subprocess; stdin is str, bytes or None."""
    return subprocess.run(
        [sys.executable, "-m", "pseudofuzzy", *argv],
        input=stdin.encode() if isinstance(stdin, str) else stdin,
        capture_output=True,
        **kwargs,
    )
