import os

from permflow.basetypes import embed
from permflow.constraints import (
    Constraint,
    GenConstraint,
    GenOutput,
    Provenance,
    TGround,
    TJoin,
    TMeet,
    TMerge,
    TProj,
    TVar,
    constraint_witness,
    gen_constraints,
    generalize,
)
from permflow.parser import parse_system
from permflow.syntax import Span
from permflow.system import validate_system
from permflow.traces import EPSILON, Trace

from .declarative import entailed_by

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")


def load(name: str):
    with open(os.path.join(PROGRAMS, name), "r", encoding="utf-8") as fh:
        return validate_system(parse_system(fh.read()))


def _shape(c: Constraint, csys):
    """(guard, lhs shape, rhs shape) with grounds named by their table."""

    def side(t):
        if isinstance(t, TGround):
            return tuple(csys.lattice.name(v) for v in t.type.table)
        if isinstance(t, TVar):
            return "var"
        if isinstance(t, TJoin):
            return ("join", side(t.lhs), side(t.rhs))
        return repr(t)

    return (c.guard.format(csys.universe.names), side(c.lhs), side(c.rhs))


def test_illustrative_constraint_set():
    csys = load("illustrative.pf")
    gen = gen_constraints(csys)
    shapes = {_shape(c, csys) for c in gen.by_function["A.f"]}
    lp = ("lp",) * 4
    lq = ("lq",) * 4
    L = ("L",) * 4
    assert shapes == {
        ("+p", lp, "var"),
        ("-p", L, "var"),
        ("+q", ("join", "var", lq), "var"),
        ("-q", ("join", "var", L), "var"),
    }


def test_getinfo_constraint_set():
    csys = load("getinfo.pf")
    gen = gen_constraints(csys)
    shapes = {_shape(c, csys) for c in gen.by_function["Tracker.getInfo"]}
    l1 = ("l1",) * 4
    H = ("H",) * 4  # the ground join of the two incomparable inputs
    L = ("L",) * 4
    assert shapes == {
        ("+p+q", l1, "var"),
        ("+p-q", L, "var"),
        ("-p+q", H, "var"),
        ("-p-q", L, "var"),
    }


def test_identity_constraint_set():
    csys = load("identity.pf")
    src = """
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun id(x) { init r = 0 in { r := x; return r } }
}
"""
    csys = validate_system(parse_system(src))
    gen = gen_constraints(csys)
    cs = gen.by_function["A.id"]
    assert len(cs) == 1
    (c,) = cs
    assert c.guard == EPSILON
    assert isinstance(c.lhs, TVar) and isinstance(c.rhs, TVar)
    sig = gen.signatures["A.id"]
    assert c.lhs == sig.params[0] and c.rhs == sig.ret


def test_annotated_functions_are_ground():
    # the signature is the annotation; the body still owns its constraints,
    # which are ground where it binds no letvar
    csys = load("getsecret.pf")
    gen = gen_constraints(csys)
    sig = gen.signatures["C.getsecret"]
    assert isinstance(sig.ret, TGround)
    H = ("H",) * 2
    L = ("L",) * 2
    ret = ("L", "H")  # {{p}: H, _: L} at {} and at {p}
    assert {_shape(c, csys) for c in gen.by_function["C.getsecret"]} == {
        ("+p", H, ret),
        ("-p", L, ret),
    }


def test_call_to_annotated_callee_folds_projections():
    csys = load("mixed_annot.pf")
    gen = gen_constraints(csys)
    # Lib.double is annotated: a ground signature, and its body's one ground
    # constraint; Use.quad gets projections
    (own,) = gen.by_function["Lib.double"]
    assert isinstance(own.lhs, TGround) and isinstance(own.rhs, TGround)
    quad = gen.by_function["Use.quad"]
    projs = [c for c in quad if isinstance(c.lhs, TProj) or isinstance(c.rhs, TProj)]
    # projections fold onto grounds when the callee type is annotated
    assert projs == []
    assert len(quad) >= 3


def test_generalize_examples(two_point):
    lat = two_point
    g = TGround(embed(lat.level("H"), lat, 1))
    v = TVar(0)
    c = Constraint(Trace(pos=0b1), g, v)
    (gc,) = generalize([c])
    assert gc == GenConstraint(Trace(pos=0b1), g, Trace(pos=0b1), v)
    assert generalize([]) == []
    c2 = Constraint(EPSILON, v, TVar(1))
    (gc2,) = generalize([c2])
    assert gc2.lguard == EPSILON and gc2.rguard == EPSILON


def test_constraint_holds_semantics(two_point):
    lat = two_point
    H = embed(lat.level("H"), lat, 1)
    L = embed(lat.level("L"), lat, 1)
    c = Constraint(EPSILON, TGround(H), TGround(L))
    assert constraint_witness(c, {}, lat, 1) is not None
    c2 = Constraint(EPSILON, TGround(L), TGround(H))
    assert constraint_witness(c2, {}, lat, 1) is None
    # guard remap: H <= x under +p only constrains the {p} column
    t = TVar(0)
    c3 = Constraint(Trace(pos=0b1), TGround(H), t)
    from permflow.basetypes import BaseType

    ok = BaseType(lat, 1, (lat.level("L"), lat.level("H")))
    assert constraint_witness(c3, {0: ok}, lat, 1) is None
    bad = BaseType(lat, 1, (lat.level("H"), lat.level("L")))
    assert constraint_witness(c3, {0: bad}, lat, 1) == 0b1  # {p}, which +p entails


RULES = {"assign", "call-arg", "call-ret", "if-guard", "while-guard", "letvar-init"}


def test_provenance_is_not_part_of_identity(two_point):
    g = TGround(embed(two_point.bottom, two_point, 1))
    first = Constraint(EPSILON, g, TVar(0), Provenance("assign", Span(3, 5), "r"))
    again = Constraint(EPSILON, g, TVar(0), Provenance("if-guard", Span(7, 1)))
    assert first == again and hash(first) == hash(again)
    assert first == Constraint(EPSILON, g, TVar(0))
    # deduplication keeps the first occurrence, provenance included
    gen = GenOutput({}, {"A.f": [first], "A.g": [again]})
    kept = gen.all_constraints()
    assert len(kept) == 1 and kept[0].provenance.span == Span(3, 5)


def test_generated_constraints_carry_provenance():
    rules = set()
    for name in sorted(os.listdir(PROGRAMS)):
        gen = gen_constraints(load(name))
        # each side condition belongs to the one function whose body has it
        owner = {}
        for qname, cs in gen.by_function.items():
            for c in cs:
                prov = c.provenance
                key = (prov.rule, prov.span, prov.arg)
                assert owner.setdefault(key, qname) == qname, (name, key)
        for c in gen.all_constraints():
            prov = c.provenance
            assert prov.rule in RULES, (name, c)
            assert prov.span.line > 0 and prov.span.col > 0, (name, c)
            if prov.rule.startswith("call-"):
                assert prov.callee in gen.signatures
            assert (prov.arg is not None) == (prov.rule == "call-arg")
            rules.add(prov.rule)
    assert rules == RULES


def test_witness_is_least_failing_permission_set(rng):
    # constraint_witness visits only the sets the guard entails; it must
    # return the least failing one that the full scan finds
    from permflow.constraints import eval_term

    from .conftest import random_basetype
    from .diffgen import random_instance

    def full_scan(c, subst, lat, nperms):
        tables = {v: t.table for v, t in subst.items()}
        for q in range(1 << nperms):
            if entailed_by(c.guard, q) and not lat.leq(
                    eval_term(c.lhs, q, tables, lat), eval_term(c.rhs, q, tables, lat)):
                return q
        return None

    failing = 0
    for _ in range(300):
        constraints, lat, nperms, nvars = random_instance(rng)
        subst = {v: random_basetype(rng, lat, nperms) for v in range(nvars)}
        for c in constraints:
            want = full_scan(c, subst, lat, nperms)
            assert constraint_witness(c, subst, lat, nperms) == want
            failing += want is not None
    assert failing > 100



def _render_term(t, csys) -> str:
    if isinstance(t, TVar):
        return repr(t)
    if isinstance(t, TGround):
        return "[" + " ".join(csys.lattice.name(v) for v in t.type.table) + "]"
    if isinstance(t, TJoin):
        return f"({_render_term(t.lhs, csys)} | {_render_term(t.rhs, csys)})"
    if isinstance(t, TMeet):
        return f"({_render_term(t.lhs, csys)} & {_render_term(t.rhs, csys)})"
    if isinstance(t, TMerge):
        return (f"merge{t.perm}({_render_term(t.then, csys)}, "
                f"{_render_term(t.els, csys)})")
    return f"proj{t.pset}({_render_term(t.term, csys)})"


def _render_generation(csys) -> str:
    """Each function's signature, then its constraints in generation order
    with their provenance, guard and both sides."""
    gen = gen_constraints(csys)
    names = csys.universe.names
    lines = []
    for qname, cs in gen.by_function.items():
        sig = gen.signatures[qname]
        params = ", ".join(_render_term(t, csys) for t in sig.params)
        lines.append(f"{qname}({params}) -> {_render_term(sig.ret, csys)}")
        for c in cs:
            prov = c.provenance
            lines.append(
                f"  {prov.rule} {prov.span} name={prov.name} callee={prov.callee} "
                f"arg={prov.arg} guard={c.guard.format(names)}: "
                f"{_render_term(c.lhs, csys)} <= {_render_term(c.rhs, csys)}")
    return "\n".join(lines) + "\n"


# sha256 of _render_generation per corpus program: a renumbered variable, a
# reordered constraint or a changed provenance shows here, though no corpus
# program is unsatisfiable and the golden CLI file shows only counts
GENERATION_DIGESTS = {
    "arith.pf": "c2c19d8f621db957",
    "branchy_infer.pf": "de300b503c2e5c14",
    "callchain.pf": "947b8b3626d43fb6",
    "constfun.pf": "76a7188b35d20fc9",
    "escalate.pf": "8d480817fd4eb129",
    "forward_infer.pf": "cb4a75385038f239",
    "getcontactno.pf": "9d3fab2f3c2d64fe",
    "getinfo.pf": "39e13344150811c7",
    "getsecret.pf": "383f89c3cae3be9e",
    "identity.pf": "530e04521083bc23",
    "illustrative.pf": "2f33a1c1ef83813f",
    "laundering.pf": "b9b380a8dc468140",
    "laundering_fixed.pf": "2981059f13f777e0",
    "leaky.pf": "4dfe42c06ac8d485",
    "letscope.pf": "d18c3a3c34f36c4f",
    "merge_nested.pf": "dc447b537dbeb47b",
    "mixed_annot.pf": "4669fc3f6b30da62",
    "nonmono.pf": "95b9ef70df964e0f",
    "service_infer.pf": "ec18822f1b0975ac",
    "while_loop.pf": "e25e25e74f285226",
}


def test_generation_is_pinned_on_the_corpus():
    import hashlib

    programs = sorted(f for f in os.listdir(PROGRAMS) if f.endswith(".pf"))
    assert programs == sorted(GENERATION_DIGESTS)
    for name in programs:
        text = _render_generation(load(name))
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == GENERATION_DIGESTS[name], f"{name}:\n{text}"
