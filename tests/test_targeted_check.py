"""``solve`` checks only the constraints its fixpoint can leave false.

Those are the constraints with a ground part on the right. On random
instances ``solve``'s least solution, or its refuted constraint and that
constraint's witness, must equal those of the full check in
``tests/full_check.py``, and inference must ask ``constraint_witness`` about
no other constraint.
"""

import random

import pytest

from permflow import solver
from permflow.constraints import TGround, TJoin, TMeet, TMerge, TProj
from permflow.inference import InferUnsat, infer_system
from permflow.parser import parse_system
from permflow.solver import UnsatError, solve
from permflow.system import validate_system

from .diffgen import random_instance
from .full_check import full_least_solution
from .test_scaling import fan_source


def _ground_part(term) -> bool:
    if isinstance(term, TGround):
        return True
    if isinstance(term, (TJoin, TMeet)):
        return _ground_part(term.lhs) or _ground_part(term.rhs)
    if isinstance(term, TMerge):
        return _ground_part(term.then) or _ground_part(term.els)
    if isinstance(term, TProj):
        return _ground_part(term.term)
    return False


def test_targeted_check_matches_full_check():
    rnd = random.Random(5)
    sat = unsat = skipped = 0
    for i in range(2000):
        constraints, lat, nperms, nvars = random_instance(rnd)
        requested = tuple(range(nvars))
        want_theta, want = full_least_solution(constraints, requested, lat, nperms)
        if want is None:
            assert solve(constraints, lat, nperms, requested) == want_theta, i
            sat += 1
        else:
            with pytest.raises(UnsatError) as err:
                solve(constraints, lat, nperms, requested)
            assert err.value.constraint is want[0], i
            assert err.value.witness == want[1], i
            unsat += 1
        skipped += sum(not _ground_part(c.rhs) for c in constraints)
    assert sat > 400 and unsat > 400 and skipped > 1000, (sat, unsat, skipped)


def _witness_calls(monkeypatch):
    calls = []
    real = solver.constraint_witness

    def counting(c, *args):
        calls.append(c)
        return real(c, *args)

    monkeypatch.setattr(solver, "constraint_witness", counting)
    return calls


def test_satisfiable_fan_checks_no_constraint(monkeypatch):
    # no generated constraint of the fan has a ground part on the right
    calls = _witness_calls(monkeypatch)
    infer_system(validate_system(parse_system(fan_source(2, 40))))
    assert calls == []


def test_planted_leak_checks_only_ground_right_sides(monkeypatch):
    calls = _witness_calls(monkeypatch)
    csys = validate_system(parse_system(fan_source(2, 40, leak_at=38)))
    with pytest.raises(InferUnsat):
        infer_system(csys)
    assert calls
    assert all(_ground_part(c.rhs) for c in calls)
