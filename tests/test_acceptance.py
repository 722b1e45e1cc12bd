"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import glob
import os
import time

from permflow.basetypes import embed
from permflow.inference import CALL_ARG, annotate, check_system, infer_system
from permflow.nitest import nitest_system
from permflow.parser import parse_system
from permflow.system import validate_system

from .conftest import SEED, bt, lattice_family, random_basetype, random_trace

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")

NEGATIVE = {"laundering.pf", "laundering_fixed.pf", "leaky.pf"}


def load(name: str):
    with open(os.path.join(PROGRAMS, name), "r", encoding="utf-8") as fh:
        return validate_system(parse_system(fh.read()))


def report(num: int, elapsed: float, detail: str):
    print(f"[criterion {num}] PASS in {elapsed:.2f}s: {detail}")


def test_criterion_1_illustrative_golden():
    t0 = time.perf_counter()
    csys = load("illustrative.pf")
    result = infer_system(csys)
    got = result.types()["A.f"].ret
    want = bt(csys.lattice, "L", "lp", "lq", "H")  # {},{p},{q},{p,q}
    assert got == want
    assert result.types()["A.f"].params == ()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, elapsed, "inferred () -> {pq: lp|lq, p: lp, q: lq, {}: L} exactly")


def test_criterion_2_getinfo_golden():
    t0 = time.perf_counter()
    csys = load("getinfo.pf")
    result = infer_system(csys)
    got = result.types()["Tracker.getInfo"].ret
    want = bt(csys.lattice, "L", "L", "H", "l1")
    assert got == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, elapsed, "inferred () -> {pq: l1, p: L, q: H, {}: L} exactly")


def test_criterion_3_contact_policy():
    t0 = time.perf_counter()
    csys = load("getcontactno.pf")
    result = infer_system(csys)
    ft = result.types()["Contacts.getContactNo"]
    lat = csys.lattice
    rc = 1 << csys.universe.index("READ_CONTACT")
    for pset in csys.universe.sets():
        want = lat.level("H") if pset & rc else lat.level("L")
        assert ft.ret.at(pset) == want
    # the parameter sits at L for every caller: the two policy views are
    # L -> L without the permission and L -> H with it
    assert ft.params[0] == embed(lat.level("L"), lat, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, elapsed, "return level is H exactly when READ_CONTACT is held")


def test_criterion_4_parameter_laundering():
    t0 = time.perf_counter()
    forwarding = check_system(load("laundering.pf"))
    by_name = {v.function: v for v in forwarding.verdicts}
    assert not by_name["A.f"].ok
    assert by_name["A.f"].error.kind == CALL_ARG
    assert by_name["B.g"].ok and by_name["C.getsecret"].ok

    fixed = check_system(load("laundering_fixed.pf"))
    by_name = {v.function: v for v in fixed.verdicts}
    assert by_name["A.f"].ok
    assert not by_name["M.main"].ok
    elapsed = time.perf_counter() - t0
    report(4, elapsed, "A.f: t->L rejected (CallArgViolation); A.f: L->L ok; "
                       "M.main rejected")


def test_criterion_5_noninterference_grid():
    t0 = time.perf_counter()
    accepted = []
    for path in sorted(glob.glob(os.path.join(PROGRAMS, "*.pf"))):
        name = os.path.basename(path)
        if name in NEGATIVE:
            continue
        csys = load(name)
        if any(d.annotation is None for d in csys.fd.values()):
            result = infer_system(csys)
            csys = annotate(csys, result.types())
            assert check_system(csys).ok, name  # every body, inferred ones too
        else:
            assert check_system(csys).ok, name
        accepted.append((name, csys))
    assert len(accepted) >= 12

    total_cells = 0
    for name, csys in accepted:
        rep = nitest_system(csys, domain=(0, 1, 2))
        total_cells += len(rep.cells)
        assert rep.ok, (name, rep.violations)
        assert not any(c.verdict == "inconclusive" for c in rep.cells), name

    # power check: the deliberately leaky ill-typed program must trip
    leaky = load("leaky.pf")
    assert not check_system(leaky).ok
    assert not nitest_system(leaky).ok

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, elapsed, f"{len(accepted)} accepted programs, {total_cells} cells, "
                       "zero violations; leaky program trips the harness")


def test_criterion_6_solver_differential():
    from .test_differential import run_differential

    t0 = time.perf_counter()
    stats = run_differential(1000, SEED)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, elapsed, f"1000 random sets, {stats['sat']} sat / "
                       f"{stats['unsat']} unsat, zero disagreements")


def test_criterion_7_trace_algebra_bulk():
    import random

    from permflow.traces import Trace

    from .declarative import apply_trace, demote, promote

    t0 = time.perf_counter()
    rnd = random.Random(SEED)
    lats = lattice_family()
    checked = 0
    for _ in range(10_000):
        lat = rnd.choice(lats)
        nperms = rnd.randint(2, 4)
        t = random_basetype(rnd, lat, nperms)
        p, q = rnd.sample(range(nperms), 2)
        sp = Trace(pos=1 << p) if rnd.random() < 0.5 else Trace(neg=1 << p)
        sq = Trace(pos=1 << q) if rnd.random() < 0.5 else Trace(neg=1 << q)
        sp2 = Trace(pos=1 << p) if rnd.random() < 0.5 else Trace(neg=1 << p)
        trace = random_trace(rnd, nperms)
        trace_no_p = Trace(trace.pos & ~(1 << p), trace.neg & ~(1 << p))

        # distinct permissions commute
        assert apply_trace(apply_trace(t, sp), sq) == apply_trace(apply_trace(t, sq), sp)
        # a signed application commutes with any p-free trace
        assert apply_trace(apply_trace(t, sp), trace_no_p) == apply_trace(
            apply_trace(t, trace_no_p), sp
        )
        # on the same permission only the first application matters
        assert apply_trace(apply_trace(t, sp), sp2) == apply_trace(t, sp)
        # traces are idempotent
        once = apply_trace(t, trace)
        assert apply_trace(once, trace) == once
        # promotion at a set containing p (demotion at one without) is invisible
        pset = rnd.randrange(1 << nperms)
        if pset >> p & 1:
            assert promote(t, p).at(pset) == t.at(pset)
        else:
            assert demote(t, p).at(pset) == t.at(pset)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, elapsed, f"{checked} randomized instances, zero counterexamples")


def test_criterion_8_infer_check_roundtrip(tmp_path, capsys):
    from permflow.cli import main

    t0 = time.perf_counter()
    rounds = 0
    for path in sorted(glob.glob(os.path.join(PROGRAMS, "*.pf"))):
        name = os.path.basename(path)
        if name in NEGATIVE:
            continue  # deliberately ill-typed counterexample files
        out = tmp_path / f"annotated_{name}"
        assert main(["infer", path, "--emit-annotated", str(out)]) == 0, name
        assert main(["check", str(out)]) == 0, name
        rounds += 1
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, elapsed, f"{rounds} systems re-annotated and re-checked green")


def test_criterion_9_micro_equivalence(capsys):
    t0 = time.perf_counter()
    from .test_equivalence import test_trace_rules_match_declarative_search

    test_trace_rules_match_declarative_search()
    elapsed = time.perf_counter() - t0
    report(9, elapsed, "trace-rule verdicts equal declarative derivation search "
                       "on the exhaustive micro family")
