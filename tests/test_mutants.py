"""The mutant catalogue (``tests/mutants.py``): each mutant's snippet occurs
exactly once in its module and each of its killers exists, so an edit to
an anchored line, or a renamed killer, fails here until the catalogue
follows it.  With ``PERMFLOW_MUTANTS=1`` set, each mutant is also applied
in a copy of the checkout and must fail every one of its killers.
"""

import os
import re

import pytest

from .mutants import MUTANTS, ROOT, SRC, run_mutant

EACH = pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@EACH
def test_each_snippet_occurs_once(mutant):
    with open(os.path.join(SRC, mutant.file), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


@EACH
def test_each_killer_exists(mutant):
    assert mutant.killers
    for node in mutant.killers:
        path, name = node.split("::", 1)
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            text = fh.read()
        assert re.search(rf"^def {re.escape(name.split('[')[0])}\(", text, re.M), node


if os.environ.get("PERMFLOW_MUTANTS") == "1":
    @EACH
    def test_each_mutant_fails_its_killers(mutant):
        outcomes = run_mutant(mutant)
        assert set(outcomes.values()) == {"killed"}, outcomes
