"""Let the CLI subprocesses that tests start import the package from src/,
as pytest's own `pythonpath` setting lets the tests themselves."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
