"""The unsat core: the search inside the cone against the deletion loop.

``solve`` reports the core that greedy deletion in generation order keeps
(``tests/greedy_core.py``), found by galloping search inside the cone of
the constraints with a ground part on the right. On random unsatisfiable
instances the two must agree list for list, and the symbolic reference
must judge every core irreducible: unsatisfiable, and satisfiable once any
one member is dropped.
"""

import random

import pytest

from permflow.solver import UnsatError, solve, symbolic_solve

from .conftest import SEED
from .diffgen import random_instance
from .greedy_core import greedy_core


def _symbolic_sat(constraints, lat, nperms) -> bool:
    try:
        symbolic_solve(constraints, lat, nperms)
    except UnsatError:
        return False
    return True


def _unsat_instances(count: int, max_count: int):
    rnd = random.Random(SEED)
    found = 0
    while found < count:
        constraints, lat, nperms, _ = random_instance(rnd, max_count)
        try:
            solve(constraints, lat, nperms)
        except UnsatError as err:
            found += 1
            yield constraints, lat, nperms, err.core


# the differential generator's own sizes, and longer sets where the
# search takes several steps per kept constraint
@pytest.mark.parametrize("count, max_count", [(2000, 10), (300, 40)],
                         ids=["upto10", "upto40"])
def test_core_is_greedy_and_irreducible(count, max_count):
    sizes = []
    for i, (constraints, lat, nperms, core) in enumerate(_unsat_instances(count, max_count)):
        sizes.append(len(core))
        assert core == greedy_core(constraints, lat, nperms), (i, constraints)
        assert not _symbolic_sat(core, lat, nperms), (i, core)
        for j in range(len(core)):
            assert _symbolic_sat(core[:j] + core[j + 1:], lat, nperms), (i, j, core)
    assert max(sizes) >= 3, sizes
