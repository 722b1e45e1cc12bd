import os

from permflow.basetypes import FunctionType, embed
from permflow.constraints import (
    Constraint,
    TGround,
    constraint_witness,
    gen_constraints,
)
from permflow.inference import (
    ANNOTATION,
    CALL_ARG,
    RETURN,
    SUBTYPE,
    check_system,
)
from permflow.parser import parse_system
from permflow.syntax import Assign, BinOp, FunDecl, IntLit, Var
from permflow.system import System, validate_system

from .conftest import bt, random_basetype, random_trace
from .declarative import apply_trace, entailed_by

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")


def load(name: str):
    with open(os.path.join(PROGRAMS, name), "r", encoding="utf-8") as fh:
        return validate_system(parse_system(fh.read()))


def _sys(src: str):
    return validate_system(parse_system(src))


def _expr_term(csys, gamma, e):
    """The term that Γ ⊢ e : τ gives ``e``, the parameters typed as ``gamma``
    says: the left side of the one constraint that a body ``r := e``
    generates."""
    lat = csys.lattice
    ret = embed(lat.bottom, lat, csys.universe.count)
    decl = FunDecl(next(iter(csys.theta)), "f", tuple(gamma), "r", Assign("r", e),
                   FunctionType(tuple(gamma.values()), ret))
    sys_ = System(lat, csys.universe, csys.theta, {decl.qualified: decl}, csys.constants)
    (c,) = gen_constraints(validate_system(sys_)).by_function[decl.qualified]
    return c.lhs


def _error(csys, qname: str):
    """The checker's report on ``qname``, None when it typechecks."""
    return {v.function: v.error for v in check_system(csys).verdicts}[qname]


def test_var_rule(diamond):
    csys = load("getinfo.pf")
    t = bt(csys.lattice, "L", "l1", "l2", "H")
    assert _expr_term(csys, {"x": t}, Var("x")) == TGround(t)


def test_op_rule_joins(diamond):
    csys = load("getinfo.pf")
    lat = csys.lattice
    gamma = {
        "x": embed(lat.level("l1"), lat, 2),
        "y": embed(lat.level("l2"), lat, 2),
    }
    t = _expr_term(csys, gamma, BinOp("+", Var("x"), Var("y")))
    assert t == TGround(embed(lat.level("H"), lat, 2))


def test_literal_is_bottom():
    csys = load("getinfo.pf")
    t = _expr_term(csys, {}, IntLit(0))
    assert t == TGround(embed(csys.lattice.bottom, csys.lattice, 2))


def test_getsecret_body_typechecks():
    csys = load("getsecret.pf")
    assert _error(csys, "C.getsecret") is None


def test_assignment_violation_carries_witness():
    csys = _sys("""
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(x : H) : L { init r = 0 in { r := x; return r } }
}
""")
    err = _error(csys, "A.f")
    assert err is not None and err.kind == SUBTYPE
    # the witness entails the guard and violates the pointwise order
    assert entailed_by(err.trace, err.witness)
    lat = csys.lattice
    assert not lat.leq(err.lhs.at(err.witness), err.rhs.at(err.witness))


def test_parameter_forwarding_rejected():
    csys = load("laundering.pf")
    err = _error(csys, "A.f")
    assert err is not None and err.kind == CALL_ARG


def test_fixed_system_verdicts():
    csys = load("laundering_fixed.pf")
    rep = check_system(csys)
    verdicts = {v.function: v for v in rep.verdicts}
    assert verdicts["C.getsecret"].ok
    assert verdicts["B.g"].ok
    assert verdicts["A.f"].ok
    assert not verdicts["M.main"].ok
    assert verdicts["M.main"].error.kind == CALL_ARG
    assert not rep.ok


def test_return_view_violation():
    csys = _sys("""
lattice { levels L, H; order L < H; }
permissions { p }
app B perms {p} {
  const SECRET : H = 5;
  fun get() : { {p}: H, _: L } {
    init r = 0 in { test(p) r := SECRET else r := 0; return r }
  }
}
app A perms {p} {
  fun f() : L { init r = 0 in { r := call B.get(); return r } }
}
""")
    err = _error(csys, "A.f")
    assert err is not None and err.kind == RETURN


def test_identity_well_typed():
    csys = load("identity.pf")
    assert check_system(csys).ok


def test_merge_rule_shapes_result(two_point):
    # test(p) gives the merged effect of the two branches, which the
    # enclosing while loop's guard constraint bounds
    csys = _sys("""
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {p} {
  const SECRET : H = 5;
  fun f() : { {p}: H, _: L } {
    init r = 0 in { while 0 do { test(p) r := SECRET else r := 0 }; return r }
  }
}
""")
    out = gen_constraints(csys).by_function["A.f"]
    (guard,) = [c for c in out if c.provenance.rule == "while-guard"]
    assert guard.rhs == TGround(csys.fd["A.f"].annotation.ret)
    assert all(constraint_witness(c, {}, csys.lattice, 1) is None for c in out)


def test_letvar_fixpoint_completes_check():
    # the local's type must rise above its initializer to admit the body
    csys = _sys("""
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(x : H) : H {
    init r = 0 in {
      letvar t = 0 in { t := x; r := t };
      return r
    }
  }
}
""")
    assert _error(csys, "A.f") is None


def test_letvar_fixpoint_self_reference():
    csys = _sys("""
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(x : H) : H {
    init r = 0 in {
      letvar t = 0 in {
        test(p) t := t + x else t := t;
        r := t
      };
      return r
    }
  }
}
""")
    assert _error(csys, "A.f") is None


def test_partial_subtyping_is_definitional(rng):
    from .conftest import lattice_family

    for lat in lattice_family():
        for _ in range(200):
            s = random_basetype(rng, lat, 2)
            t = random_basetype(rng, lat, 2)
            trace = random_trace(rng, 2)
            c = Constraint(trace, TGround(s), TGround(t))
            assert (constraint_witness(c, {}, lat, 2) is None) == apply_trace(
                s, trace
            ).leq(apply_trace(t, trace))


def test_reinferred_annotation_rechecks():
    from permflow.inference import annotate, infer_system

    csys = load("getinfo.pf")
    result = infer_system(csys)
    annotated = annotate(csys, result.types())
    assert check_system(annotated).ok


def test_check_requires_annotations():
    csys = load("getinfo.pf")  # unannotated
    rep = check_system(csys)
    assert not rep.ok
    assert rep.verdicts[0].error.kind == "AnnotationMismatch"


def test_unannotated_callee_reported_at_its_call():
    # the same report whatever the body's shape, before any side condition
    csys = _sys("""
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun g(y) { init r = 0 in { r := y; return r } }
  fun f(x : H) : L {
    init r = 0 in {
      letvar t = 0 in { t := x; r := t };
      r := call A.g(x);
      return r
    }
  }
  fun h(x : H) : L {
    init r = 0 in { r := x; r := call A.g(x); return r }
  }
  fun k() { init r = 0 in { return r } }
  fun e(y : L) : L { init r = 0 in { r := y; return r } }
  fun m(x : L) : L {
    init r = 0 in {
      r := call A.e(x);
      test(p) r := r else r := call A.k();
      r := call A.g(x);
      return r
    }
  }
}
""")
    for qname, callee, span in (("A.f", "A.g", "9:7"), ("A.h", "A.g", "14:29"),
                                ("A.m", "A.k", "21:27")):
        err = _error(csys, qname)
        assert err.kind == ANNOTATION
        assert err.message == f"called function {callee} has no type"
        assert str(err.span) == span


def test_check_system_generates_once(monkeypatch):
    import permflow.inference as inference

    csys = load("callchain.pf")
    assert len(csys.fd) > 1
    calls = []
    real = inference.gen_constraints

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(inference, "gen_constraints", counting)
    assert check_system(csys).ok
    assert calls == [csys]
