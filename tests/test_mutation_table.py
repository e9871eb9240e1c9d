"""The table of tests/mutation.py cannot rot silently: each row still applies.

The mutation run itself is slow and is started by hand (python3
tests/mutation.py); this only checks that every row's old text occurs
exactly once in its file and that every test id it names exists.
"""

import re

import pytest

from mutation import MUTANTS, REPO


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_row_applies_to_one_place_and_names_existing_tests(mutant):
    text = (REPO / "src" / "blockgd" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (REPO / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(class|def) {name}\b", source, re.M), node


def test_row_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
