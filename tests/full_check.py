"""The verdict that checks every constraint, over the least fixpoint of the
whole set rather than of the cone of those with a ground part on the right.

It runs the least fixpoint over every constraint, then asks
``constraint_witness`` about every constraint in generation order.
``solver.solve`` and ``solver.refutation`` must reach the same verdict, the
same refuted constraint and the same witness, and ``solve`` the same least
solution of a satisfiable set; ``tests/test_targeted_check.py`` and
``tests/test_cone.py`` check that, and ``tests/greedy_core.py`` decides with
it.
"""

from permflow.constraints import constraint_witness
from permflow.solver import least_fixpoint


def full_least_solution(constraints, requested, lattice, nperms):
    theta = least_fixpoint(constraints, requested, lattice, nperms)
    for c in constraints:
        q = constraint_witness(c, theta, lattice, nperms)
        if q is not None:
            return theta, (c, q)
    return theta, None
