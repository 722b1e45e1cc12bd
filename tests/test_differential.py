"""Differential testing of the worklist solver against the symbolic one.

``solve`` (the worklist least fixpoint) and ``symbolic_solve`` (decompose,
saturate, sweep) must agree on satisfiability, and on satisfiable instances
their least solutions must be extensionally equal on every variable. The acceptance
suite runs the full 1,000-instance budget; this module keeps a quicker
smoke slice for everyday development.
"""

import random

from permflow.solver import UnsatError, solve, symbolic_solve

from .conftest import SEED
from .diffgen import random_instance


def run_differential(count: int, seed: int = SEED) -> dict:
    rnd = random.Random(seed)
    stats = {"sat": 0, "unsat": 0}
    for i in range(count):
        constraints, lat, nperms, nvars = random_instance(rnd)
        requested = tuple(range(nvars))
        try:
            got = solve(constraints, lat, nperms, requested)
            got_sat = True
        except UnsatError:
            got_sat = False
        try:
            ref = symbolic_solve(constraints, lat, nperms, requested)
            ref_sat = True
        except UnsatError:
            ref_sat = False

        assert got_sat == ref_sat, (
            f"instance {i}: solver says {'sat' if got_sat else 'unsat'}, "
            f"symbolic reference says {'sat' if ref_sat else 'unsat'}: {constraints}"
        )
        if got_sat:
            stats["sat"] += 1
            for v in requested:
                assert got[v] == ref[v], (
                    f"instance {i}: least solutions differ on variable {v}: "
                    f"{got[v]} vs {ref[v]}"
                )
        else:
            stats["unsat"] += 1
    return stats


def test_differential_smoke():
    stats = run_differential(300)
    # the generator must exercise both outcomes
    assert stats["sat"] > 30 and stats["unsat"] > 30


def _agree(constraints, lat, nperms, nvars, tag):
    requested = tuple(range(nvars))
    try:
        got = solve(constraints, lat, nperms, requested)
        got_sat = True
    except UnsatError:
        got_sat = False
    try:
        ref = symbolic_solve(constraints, lat, nperms, requested)
        ref_sat = True
    except UnsatError:
        ref_sat = False
    assert got_sat == ref_sat, (tag, constraints)
    if got_sat:
        for v in requested:
            assert got[v] == ref[v], (tag, v, constraints)
    return got_sat


def test_differential_cycle_heavy():
    # variable-variable chains and cycles dominate; exercises saturation
    from permflow.constraints import Constraint, TGround, TVar

    from .conftest import lattice_family, random_basetype, random_trace

    rnd = random.Random(SEED + 1)
    sat = 0
    for i in range(400):
        lat = rnd.choice(lattice_family())
        nperms = rnd.randint(1, 3)
        nvars = rnd.randint(2, 4)
        cs = []
        for _ in range(rnd.randint(3, 9)):
            roll = rnd.random()
            if roll < 0.65:
                cs.append(Constraint(random_trace(rnd, nperms),
                                     TVar(rnd.randrange(nvars)),
                                     TVar(rnd.randrange(nvars))))
            elif roll < 0.85:
                cs.append(Constraint(random_trace(rnd, nperms),
                                     TGround(random_basetype(rnd, lat, nperms)),
                                     TVar(rnd.randrange(nvars))))
            else:
                cs.append(Constraint(random_trace(rnd, nperms),
                                     TVar(rnd.randrange(nvars)),
                                     TGround(random_basetype(rnd, lat, nperms))))
        sat += _agree(cs, lat, nperms, nvars, i)
    assert 0 < sat < 400


def test_differential_projection_heavy():
    # projections of variables force one-sided full-assignment guards and
    # regularly trigger the self-guard regrouping into piece variables
    from permflow.constraints import Constraint, TGround, TProj, TVar

    from .conftest import lattice_family, random_basetype, random_trace

    rnd = random.Random(SEED + 2)
    sat = 0
    for i in range(400):
        lat = rnd.choice(lattice_family())
        nperms = rnd.randint(1, 3)
        nvars = rnd.randint(2, 4)

        def side():
            v = TVar(rnd.randrange(nvars))
            if rnd.random() < 0.55:
                return TProj(v, rnd.randrange(1 << nperms))
            return v

        cs = []
        for _ in range(rnd.randint(3, 8)):
            roll = rnd.random()
            if roll < 0.6:
                cs.append(Constraint(random_trace(rnd, nperms), side(), side()))
            elif roll < 0.82:
                cs.append(Constraint(random_trace(rnd, nperms),
                                     TGround(random_basetype(rnd, lat, nperms)),
                                     side()))
            else:
                cs.append(Constraint(random_trace(rnd, nperms), side(),
                                     TGround(random_basetype(rnd, lat, nperms))))
        sat += _agree(cs, lat, nperms, nvars, i)
    assert 0 < sat < 400
