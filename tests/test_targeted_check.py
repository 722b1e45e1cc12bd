"""``least_solution`` checks only the constraints its fixpoint can leave false.

Those are the constraints with a ground part on the right. On random
instances the verdict, the refuted constraint and its witness must equal
those of the full check in ``tests/full_check.py``, and inference must ask
``constraint_witness`` about no other constraint.
"""

import random

import pytest

from permflow import solver
from permflow.constraints import TGround, TJoin, TMeet, TMerge, TProj
from permflow.inference import InferUnsat, infer_system
from permflow.parser import parse_system
from permflow.solver import least_solution
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
        theta, refuted = least_solution(constraints, requested, lat, nperms)
        want_theta, want = full_least_solution(constraints, requested, lat, nperms)
        assert theta == want_theta, i
        if want is None:
            assert refuted is None, i
            sat += 1
        else:
            assert refuted is not None, i
            assert refuted[0] is want[0] and refuted[1] == want[1], i
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
