"""The mutant catalogue (``tests/mutants.py``): each mutant's snippet occurs
exactly once in its module and each of its killers is a node ID that
pytest collects, parameters included, so an edit to an anchored line, or a
renamed killer or parameter id, fails here until the catalogue follows it.
With ``PERMFLOW_MUTANTS=1`` set, each mutant is also applied in a copy of
the checkout and must fail every one of its killers.
"""

import os
import subprocess
import sys

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


@pytest.fixture(scope="module")
def collected():
    """The node IDs that pytest collects from the killers' files, in one
    ``--collect-only`` run."""
    files = sorted({node.split("::")[0] for m in MUTANTS for node in m.killers})
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *files], cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    return set(done.stdout.splitlines())


@EACH
def test_each_killer_exists(mutant, collected):
    assert mutant.killers
    for node in mutant.killers:
        assert node in collected, node


if os.environ.get("PERMFLOW_MUTANTS") == "1":
    @EACH
    def test_each_mutant_fails_its_killers(mutant):
        outcomes = run_mutant(mutant)
        assert set(outcomes.values()) == {"killed"}, outcomes
