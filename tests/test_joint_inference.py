"""Inference decides annotated bodies in the joint constraint system.

An annotated function enters generation with its annotation as a ground
signature and its body's constraints join the one system that ``solve``
decides, so a call from an annotated body bounds the inferred callee, and
an annotated body that its own annotations refute makes the system
unsatisfiable. The checker stays the oracle: whatever ``infer_system``
returns must pass ``check_system`` in every body, annotated ones included,
and no typing that ``check`` accepts may be missed when annotations are
dropped. Inference itself never calls the checker.
"""

import glob
import os
import random
from dataclasses import replace

from permflow import inference
from permflow.basetypes import FunctionType
from permflow.cli import main
from permflow.inference import InferUnsat, annotate, check_system, infer_system
from permflow.parser import parse_system
from permflow.syntax import CallAssign, subcommands
from permflow.system import validate_system

from .conftest import SEED, random_basetype
from .progen import annotate_some, random_checked_system
from .test_scaling import fan_source

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")

# A checked caller passes its H parameter to an inferred callee.
CALLER_BOUNDS_CALLEE = """\
lattice { levels L, H; order L < H; }
permissions { }
app A perms {} {
  fun f(x : H) : H { init r = 0 in { r := call A.g(x); return r } }
  fun g(y) infer { init r = 0 in { r := y; return r } }
}
"""


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return validate_system(parse_system(fh.read()))


def _rejected(csys) -> list[str]:
    return [v.function for v in check_system(csys).verdicts if not v.ok]


def test_annotated_caller_bounds_inferred_callee(capsys, tmp_path):
    path = tmp_path / "caller.pf"
    path.write_text(CALLER_BOUNDS_CALLEE)
    assert main(["infer", str(path)]) == 0
    assert capsys.readouterr().out == (
        "A.f : ({_: H}) -> {_: H}\n"
        "A.g : ({_: H}) -> {_: H}\n"
    )


def _fully_annotated(rnd: random.Random):
    csys = random_checked_system(rnd)
    n = csys.universe.count

    def random_type():
        return random_basetype(rnd, csys.lattice, n)

    fd = {q: replace(d, annotation=FunctionType(
              tuple(random_type() for _ in d.params), random_type()))
          for q, d in csys.fd.items()}
    return replace(csys, fd=fd)


def _leq(a: FunctionType, b: FunctionType) -> bool:
    return all(s.leq(t) for s, t in zip((*a.params, a.ret), (*b.params, b.ret)))


def test_dropped_annotations_bound_the_inferred_types():
    # A full annotation that check accepts solves the joint system, so
    # inference still succeeds once some annotations are dropped, and each
    # dropped function's least type lies below its dropped annotation. The
    # seed draws systems in which a kept annotated body calls a dropped
    # function, so that body's call must bound the callee's type.
    rnd = random.Random(SEED + 20)
    accepted = dropped_callees = 0
    for i in range(1500):
        full = _fully_annotated(rnd)
        rejected = _rejected(full)
        try:
            infer_system(full)
        except InferUnsat as e:
            # on a fully annotated system, infer's verdict is check's
            assert rejected and set(e.functions) <= set(rejected), i
            # every core constraint has an owner among the blamed functions,
            # and the core is the solver's own, in its order
            assert e.functions, i
            assert {owner for owner, _ in e.core} <= set(e.functions), i
            assert [c for _, c in e.core] == e.__cause__.core, i
            continue
        assert not rejected, i
        accepted += 1
        dropped = {q for q in full.fd if rnd.random() < 0.5}
        partial = replace(full, fd={
            q: replace(d, annotation=None) if q in dropped else d
            for q, d in full.fd.items()})
        types = infer_system(partial).types()
        for q in dropped:
            assert _leq(types[q], full.fd[q].annotation), (i, q)
        assert check_system(annotate(partial, types)).ok, i
        dropped_callees += any(
            node.target in dropped
            for q, d in full.fd.items() if q not in dropped
            for node in subcommands(d.body) if isinstance(node, CallAssign))
    assert accepted >= 300
    assert dropped_callees >= 10


def test_inferred_types_check_on_partly_annotated_systems():
    rnd = random.Random(SEED + 12)
    returned = unsat = 0
    for i in range(1200):
        csys = validate_system(annotate_some(rnd, random_checked_system(rnd)))
        try:
            types = infer_system(csys).types()
        except InferUnsat:
            unsat += 1
            continue
        returned += any(d.annotation is not None for d in csys.fd.values())
        assert check_system(annotate(csys, types)).ok, i
    # the family exercises both verdicts on systems with annotated bodies
    assert returned >= 200 and unsat >= 200


def test_inferred_corpus_types_check():
    unsat = {}
    for path in sorted(glob.glob(os.path.join(PROGRAMS, "*.pf"))):
        csys = _load(path)
        try:
            types = infer_system(csys).types()
        except InferUnsat as e:
            unsat[os.path.basename(path)] = (e.functions, _rejected(csys))
            continue
        assert check_system(annotate(csys, types)).ok, path
    # each is fully annotated, and infer blames what check rejects
    assert unsat == {
        "laundering.pf": (["A.f"], ["A.f"]),
        "laundering_fixed.pf": (["M.main"], ["M.main"]),
        "leaky.pf": (["A.bad"], ["A.bad"]),
    }


def _count_checks(monkeypatch) -> list:
    calls: list = []
    real = inference.refutation

    def counting(constraints, *args):
        calls.append(constraints)
        return real(constraints, *args)

    monkeypatch.setattr(inference, "refutation", counting)
    return calls


def test_fully_inferred_fan_checks_no_body(monkeypatch):
    csys = validate_system(parse_system(fan_source(2, 40)))
    calls = _count_checks(monkeypatch)
    result = infer_system(csys)
    assert calls == []
    assert len(result.functions) == 40


def test_mixed_system_checks_no_body(monkeypatch):
    csys = _load(os.path.join(PROGRAMS, "mixed_annot.pf"))
    calls = _count_checks(monkeypatch)
    result = infer_system(csys)
    assert calls == []
    assert [f.inferred for f in result.functions] == [False, True]
