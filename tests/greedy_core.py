"""The one-at-a-time deletion loop that ``solver._minimize_core`` replaced.

It reruns the verdict over every remaining constraint once per constraint,
with the whole least solution checked against every constraint
(``tests/full_check.py``). The galloping search inside the cone in
``solver._minimize_core`` must return exactly the core this loop returns,
list for list; ``tests/test_core.py`` checks that.
"""

from .full_check import full_least_solution


def greedy_core(constraints, lattice, nperms):
    core = list(constraints)
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1:]
        if _is_unsat(trial, lattice, nperms):
            core = trial
        else:
            i += 1
    return core


def _is_unsat(constraints, lattice, nperms) -> bool:
    return full_least_solution(constraints, (), lattice, nperms)[1] is not None
