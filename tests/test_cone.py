"""The verdict over the cone of the ground right sides.

``solver.refutation`` runs the least fixpoint over the cone only: the
constraints with a ground part on the right (the roots) and, transitively,
every constraint that writes a variable a member reads. Its refuted
constraint and witness must be those of the check of every constraint
against the whole least solution (``tests/full_check.py``), and the
checker's reports, tables included, must be those built from the whole least
solution.
"""

import random

from permflow.constraints import gen_constraints, term_vars
from permflow.inference import ANNOTATION, _violation, check_system, infer_system
from permflow.parser import parse_system
from permflow.solver import _cone, _has_ground, refutation
from permflow.system import validate_system

from .diffgen import random_instance
from .full_check import full_least_solution
from .progen import annotate_some, random_checked_system
from .test_joint_inference import _fully_annotated
from .test_scaling import fan_source


def _unsat_as_full_check(constraints, lat, nperms) -> bool:
    """Whether ``constraints`` are unsatisfiable, after asserting that the
    cone's verdict is the full check's: the same constraint, by identity,
    and the same witness."""
    _, _, got = refutation(constraints, lat, nperms)
    _, want = full_least_solution(constraints, (), lat, nperms)
    if want is None:
        assert got is None
        return False
    assert got is not None and got[0] is want[0] and got[1] == want[1]
    return True


def _assert_closed(constraints):
    """No constraint outside the cone writes a variable a member reads."""
    cone = _cone(constraints)
    read = set()
    for i in cone:
        c = constraints[i]
        read |= term_vars(c.lhs)
        if _has_ground(c.rhs):
            read |= term_vars(c.rhs)
    inside = set(cone)
    for i, c in enumerate(constraints):
        if _has_ground(c.rhs):
            assert i in inside
        elif i not in inside:
            assert not term_vars(c.rhs) & read, (i, c)


def test_cone_verdict_matches_full_check_on_random_sets():
    # the draws of tests/test_targeted_check.py
    rnd = random.Random(5)
    sat = unsat = rootless = 0
    for i in range(2000):
        constraints, lat, nperms, _ = random_instance(rnd)
        _assert_closed(constraints)
        if _unsat_as_full_check(constraints, lat, nperms):
            unsat += 1
        else:
            sat += 1
        if not any(_has_ground(c.rhs) for c in constraints):
            assert _cone(constraints) == [], i
            rootless += 1
    assert sat > 400 and unsat > 400 and rootless > 50, (sat, unsat, rootless)


def test_cone_verdict_matches_full_check_on_program_systems():
    # joint systems of progen programs, fully and half annotated
    rnd = random.Random(7)
    unsat = 0
    for _ in range(600):
        for csys in (_fully_annotated(rnd), annotate_some(rnd, random_checked_system(rnd))):
            constraints = gen_constraints(csys).all_constraints()
            _assert_closed(constraints)
            unsat += _unsat_as_full_check(constraints, csys.lattice, csys.universe.count)
    assert unsat > 300, unsat


def test_checker_reports_match_the_whole_least_solution():
    # the rejection sample of the ROADMAP's precision figures
    rnd = random.Random(7)
    rejected = 0
    for i in range(1500):
        csys = _fully_annotated(rnd)
        gen = gen_constraints(csys)
        for verdict in check_system(csys).verdicts:
            err = verdict.error
            if err is None or err.kind == ANNOTATION:
                continue
            rejected += 1
            theta, want = full_least_solution(
                gen.by_function[verdict.function], (), csys.lattice, csys.universe.count)
            assert want is not None, (i, verdict.function)
            expected = _violation(*want, theta, csys)
            # kind, message, span, lhs and rhs tables, trace and witness
            assert err == expected, (i, verdict.function)
    assert rejected > 1000, rejected


def test_rootless_fan_has_an_empty_cone():
    csys = validate_system(parse_system(fan_source(2, 40)))
    constraints = gen_constraints(csys).all_constraints()
    assert _cone(constraints) == []
    assert refutation(constraints, csys.lattice, csys.universe.count) == ([], {}, None)
    infer_system(csys)
