import os

import pytest

from permflow.inference import InferUnsat, annotate, infer_system
from permflow.parser import parse_system
from permflow.system import CheckedSystem, System, validate_system

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")


def load(name: str):
    with open(os.path.join(PROGRAMS, name), "r", encoding="utf-8") as fh:
        return validate_system(parse_system(fh.read()))


def test_a_checked_system_is_a_system():
    csys = load("mixed_annot.pf")
    assert isinstance(csys, System) and type(csys) is CheckedSystem
    assert not hasattr(CheckedSystem, "__getattr__")
    types = infer_system(csys).types()
    annotated = annotate(csys, types)
    assert type(annotated) is CheckedSystem and annotated.topo == csys.topo
    assert {q: d.annotation for q, d in annotated.fd.items()} == types
    assert annotated.compiled == {} and annotated.compiled is not csys.compiled


def test_annotations_echo_unchanged():
    csys = load("getsecret.pf")
    result = infer_system(csys)
    (f,) = result.functions
    assert not f.inferred
    assert f.type == csys.fd["C.getsecret"].annotation
    assert f.constraint_count == 2  # its body's two assignments


def test_mixed_annotations():
    csys = load("mixed_annot.pf")
    result = infer_system(csys)
    by_name = {f.function: f for f in result.functions}
    assert not by_name["Lib.double"].inferred
    assert by_name["Use.quad"].inferred
    lat = csys.lattice
    quad = by_name["Use.quad"].type
    from permflow.basetypes import embed

    assert quad.params[0] == embed(lat.level("L"), lat, 1)
    assert quad.ret == embed(lat.level("L"), lat, 1)


def test_unsat_blames_involved_functions():
    src = open(os.path.join(PROGRAMS, "laundering.pf")).read()
    src = src.replace("fun f(x : { {p}: H, _: L }) : L {", "fun f(x) {")
    src = src.replace("fun main() : L {", "fun main() {")
    csys = validate_system(parse_system(src))
    with pytest.raises(InferUnsat) as exc:
        infer_system(csys)
    assert exc.value.functions  # attribution names the offending functions
    assert set(exc.value.functions) <= {"A.f", "M.main"}


TWO_LEAKS = """\
// Two independent leaks into one sink.
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  const s1 : H = 1;
  const s2 : H = 2;
  fun f() { init v = 0 in { v := s1; v := call A.sink(v); return v } }
  fun g() { init w = 0 in { w := s2; w := call A.sink(w); return w } }
  fun sink(y : L) : L { init r = 0 in { r := y; return r } }
}
"""


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the reason names A.f's call at 7:38 while the core is A.g's "
    "assign and call-arg on line 8 (ROADMAP items 5 and 11)",
)
def test_unsat_reason_names_a_core_constraint():
    with pytest.raises(InferUnsat) as exc:
        infer_system(validate_system(parse_system(TWO_LEAKS)))
    err = exc.value.__cause__
    assert err.constraint in err.core


def test_ill_typed_annotated_body_is_unsat():
    # the body's own constraints refute its annotation: the joint system
    # has no solution, and the blame is the function that check rejects
    csys = load("leaky.pf")
    with pytest.raises(InferUnsat) as exc:
        infer_system(csys)
    assert exc.value.functions == ["A.bad"]
    assert [owner for owner, _ in exc.value.core] == ["A.bad"]


def test_nonmonotone_policy_inferred():
    csys = load("nonmono.pf")
    result = infer_system(csys)
    ret = result.types()["Ads.anon"].ret
    lat = csys.lattice
    assert ret.at(0) == lat.level("H")  # no permission: data flows
    assert ret.at(1) == lat.level("L")  # permission held: gated off


def test_stage_timings_present():
    csys = load("getinfo.pf")
    result = infer_system(csys)
    assert set(result.stage_timings) == {"generate", "solve"}
