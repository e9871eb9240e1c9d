"""Let the `python -m blockgd` processes that tests start import the package
from this checkout's src/ directory, as the tests themselves do."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
