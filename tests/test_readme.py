"""Every ```python block of README.md runs as written, its exit-code table is
complete, and every package name it cites in backticks exists.

Each block runs in a fresh namespace inside an empty working directory, so a
block that writes files leaves nothing behind; its own assertions are what
it checks.
"""

import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import blockgd
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


def _cited_names() -> list[str]:
    """Each dotted name in a backtick span outside the fenced blocks."""
    text = re.sub(r"^```.*?^```$", "", README.read_text(encoding="utf-8"),
                  flags=re.MULTILINE | re.DOTALL)
    return [name for span in re.findall(r"`([^`]+)`", text)
            for name in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)]


def test_cited_package_names_exist():
    """`head.attr` resolves by getattr when head is bg, blockgd, one of its
    modules or a class in blockgd.__all__ (so a stale method name fails)."""
    heads = {"bg": blockgd, "blockgd": blockgd}
    heads |= {m.name: importlib.import_module(f"blockgd.{m.name}")
              for m in pkgutil.iter_modules(blockgd.__path__) if not m.name.startswith("_")}
    heads |= {name: getattr(blockgd, name) for name in blockgd.__all__
              if isinstance(getattr(blockgd, name), type)}
    cited = [name for name in _cited_names() if name.split(".")[0] in heads]
    missing = []
    for name in cited:
        head, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, heads[head])
        except AttributeError:
            missing.append(name)
    assert cited and missing == []
