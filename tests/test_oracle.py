import pytest

from permflow.basetypes import BaseType, embed
from permflow.constraints import Constraint, TGround, TMerge, TProj, TVar, gen_constraints
from permflow.oracle import OracleUnsat, oracle_solve
from permflow.parser import parse_system
from permflow.solver import UnsatError, solve
from permflow.system import validate_system
from permflow.traces import EPSILON, Trace

from .conftest import bt

import os

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")


def load(name: str):
    with open(os.path.join(PROGRAMS, name), "r", encoding="utf-8") as fh:
        return validate_system(parse_system(fh.read()))


def test_oracle_is_solve():
    # the benchmark's answer check decides through inference's own path
    assert oracle_solve is solve and OracleUnsat is UnsatError


def test_oracle_illustrative_example():
    csys = load("illustrative.pf")
    gen = gen_constraints(csys)
    sig = gen.signatures["A.f"]
    theta = oracle_solve(gen.all_constraints(), csys.lattice, 2)
    assert theta[sig.ret.vid] == bt(csys.lattice, "L", "lp", "lq", "H")


def test_oracle_refutes_ground(two_point):
    lat = two_point
    c = Constraint(
        EPSILON,
        TGround(embed(lat.level("H"), lat, 1)),
        TGround(embed(lat.level("L"), lat, 1)),
    )
    with pytest.raises(OracleUnsat):
        oracle_solve([c], lat, 1)


def test_oracle_single_guarded_lower_bound(two_point):
    # +p-guarded lower bound pins the p column and leaves the rest at bottom
    lat = two_point
    c = Constraint(Trace(pos=1), TGround(embed(lat.level("H"), lat, 1)), TVar(0))
    theta = oracle_solve([c], lat, 1, (0,))
    assert theta[0] == bt(lat, "L", "H")


def test_eight_permissions_least_types_by_hand(diamond):
    # k=8, past the old 4-permission oracle cap: both the oracle and the
    # solver return the least types worked out from the constraints
    lat, k = diamond, 8
    L, l1, l2, H = (lat.level(x) for x in ("L", "l1", "l2", "H"))
    full = (1 << k) - 1
    p0, p3, p5, p7 = (1 << i for i in (0, 3, 5, 7))

    def g(level):
        return TGround(embed(level, lat, k))

    cs = [
        Constraint(Trace(pos=p0), g(l1), TVar(0)),
        Constraint(Trace(pos=p7), g(l2), TVar(0)),
        Constraint(EPSILON, TProj(TVar(0), full), TVar(1)),
        Constraint(Trace(neg=p3), TVar(0), TVar(2)),
        Constraint(EPSILON, TProj(TVar(0), p0), TMerge(5, TVar(3), g(H))),
        Constraint(EPSILON, TVar(1), g(H)),
    ]

    def table(f):
        return BaseType(lat, k, tuple(f(pset) for pset in range(1 << k)))

    def a0(pset):
        return lat.join(l1 if pset & p0 else L, l2 if pset & p7 else L)

    want = {
        0: table(a0),                                   # l1 with p0, l2 with p7
        1: embed(H, lat, k),                            # a0 at the full set
        2: table(lambda s: L if s & p3 else a0(s)),     # a0 where p3 is absent
        3: table(lambda s: l1 if s & p5 else L),        # a0 at {p0}, where p5 holds
    }
    requested = tuple(want)
    assert oracle_solve(cs, lat, k, requested) == want
    assert solve(cs, lat, k, requested) == want

    # an upper bound of l1 on a2 fails first at {p7}, where a2 is l2
    leak = Constraint(EPSILON, TVar(2), g(l1))
    with pytest.raises(OracleUnsat) as err:
        oracle_solve(cs + [leak], lat, k, requested)
    assert err.value.witness == p7
    with pytest.raises(UnsatError) as err:
        solve(cs + [leak], lat, k, requested)
    assert err.value.constraint == leak and err.value.witness == p7


def test_oracle_iteration_reaches_fixpoint_through_chain(two_point):
    lat = two_point
    H = TGround(embed(lat.level("H"), lat, 1))
    chain = [
        Constraint(EPSILON, H, TVar(0)),
        Constraint(EPSILON, TVar(0), TVar(1)),
        Constraint(EPSILON, TVar(1), TVar(2)),
    ]
    theta = oracle_solve(chain, lat, 1, (0, 1, 2))
    top = embed(lat.level("H"), lat, 1)
    assert theta[0] == top and theta[1] == top and theta[2] == top
