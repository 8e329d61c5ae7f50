"""The Python processes that tests start import the package from ``src``,
as ``pythonpath`` in pyproject.toml lets the tests themselves do."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
