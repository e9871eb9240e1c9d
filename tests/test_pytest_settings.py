"""The pytest settings of pyproject.toml fail a test that leaks an open file.

A file that only the garbage collector closes warns in its __del__, where
pytest catches the warning and reports it as a
PytestUnraisableExceptionWarning.  The filterwarnings list turns both
warnings into errors, so the plain tier-1 command fails on such a leak.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

LEAKING_TEST = """\
def test_leaks_an_open_file(tmp_path):
    handle = open(tmp_path / "leaked.txt", "w")
    del handle
"""


def test_a_leaked_file_fails_the_run(tmp_path):
    path = tmp_path / "test_leak.py"
    path.write_text(LEAKING_TEST, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "ResourceWarning: unclosed file" in proc.stdout, proc.stdout
