"""Every ```python block of README.md runs as written, and its exit-code table is complete.

Each block runs in a fresh namespace inside an empty working directory, so a
block that writes files leaves nothing behind; its own assertions are what
it checks.
"""

import re
from pathlib import Path

import pytest

from blockgd.errors import BlockgdError

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})


def _with_subclasses(cls) -> list[type]:
    return [cls] + [c for sub in cls.__subclasses__() for c in _with_subclasses(sub)]


def test_exit_code_table_lists_the_codes_of_the_error_classes():
    table = re.search(r"^### Exit codes\n\n((?:\|.*\n)+)", README.read_text(encoding="utf-8"),
                      re.MULTILINE).group(1)
    codes = {int(row.split("|")[1]) for row in table.splitlines()[2:]}
    assert codes == {0, 1} | {cls.exit_code for cls in _with_subclasses(BlockgdError)}
