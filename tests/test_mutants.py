"""The committed mutants (mutants.py) still apply to the current source."""

from pathlib import Path

import pytest
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_snippet_occurs_once_and_each_test_exists(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(), node
