"""The shape of tests/mutants.py's table, in the tier-1 run: each entry's
old text occurs exactly once in its file, and each test it names exists.
Running the mutants themselves is tests/mutants.py's own step."""
import re

import pytest

from mutants import MUTANTS, PACKAGE, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_edits_one_place_and_names_existing_tests(mutant):
    assert [m.name for m in MUTANTS].count(mutant.name) == 1
    assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        # a parametrized test's id ends in its parameters' id, in brackets
        path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(?:\[[\w-]+\])?", test).groups()
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test
