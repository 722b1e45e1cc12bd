"""Random constraint-set generator for the solver differential.

Terms honor the constraint grammar: joins and projections of variables may
appear only on the left of an inequality, meets, merges and projections
only on the right. Sets are kept small (few permissions, few variables) so
the symbolic reference solver, exponential in the permission count, stays
fast.
"""

from __future__ import annotations

import random

from permflow.constraints import Constraint, TGround, TJoin, TMeet, TMerge, TProj, TVar
from permflow.lattice import Lattice

from .conftest import lattice_family, random_basetype, random_trace


def random_left(rnd: random.Random, lat: Lattice, nperms: int, nvars: int, depth: int):
    roll = rnd.random()
    if depth <= 0 or roll < 0.45:
        if rnd.random() < 0.5 and nvars:
            return TVar(rnd.randrange(nvars))
        return TGround(random_basetype(rnd, lat, nperms))
    if roll < 0.8:
        return TJoin(
            random_left(rnd, lat, nperms, nvars, depth - 1),
            random_left(rnd, lat, nperms, nvars, depth - 1),
        )
    return TProj(random_left(rnd, lat, nperms, nvars, depth - 1),
                 rnd.randrange(1 << nperms))


def random_right(rnd: random.Random, lat: Lattice, nperms: int, nvars: int, depth: int):
    roll = rnd.random()
    if depth <= 0 or roll < 0.4:
        if rnd.random() < 0.5 and nvars:
            return TVar(rnd.randrange(nvars))
        return TGround(random_basetype(rnd, lat, nperms))
    if roll < 0.6:
        return TMeet(
            random_right(rnd, lat, nperms, nvars, depth - 1),
            random_right(rnd, lat, nperms, nvars, depth - 1),
        )
    if roll < 0.85:
        return TMerge(
            rnd.randrange(nperms),
            random_right(rnd, lat, nperms, nvars, depth - 1),
            random_right(rnd, lat, nperms, nvars, depth - 1),
        )
    return TProj(random_right(rnd, lat, nperms, nvars, depth - 1),
                 rnd.randrange(1 << nperms))


def random_instance(rnd: random.Random, max_count: int = 10):
    """(constraints, lattice, nperms, nvars) within the differential bounds,
    with 1 to ``max_count`` constraints."""
    lat = rnd.choice(lattice_family())
    nperms = rnd.randint(1, 3)
    nvars = rnd.randint(1, 4)
    count = rnd.randint(1, max_count)
    constraints = []
    for _ in range(count):
        guard = random_trace(rnd, nperms)
        lhs = random_left(rnd, lat, nperms, nvars, rnd.randint(0, 2))
        rhs = random_right(rnd, lat, nperms, nvars, rnd.randint(0, 2))
        constraints.append(Constraint(guard, lhs, rhs))
    return constraints, lat, nperms, nvars
