"""The paper's merge rule for ``test``, pinned where it differs from meet.

A ``test(p) C1 else C2`` command's type is the merge of its branches' types
at p: the then-branch's type on the permission sets holding p, the
else-branch's on the others.  Meet would give the lower of the two
everywhere.  The two differ only where a command's type is read, under an
``if`` or ``while`` guard, so the family here puts a test under a guard:

* ``while g do T`` and ``if g then T else c := 0``,
* with T = ``test(p) a := 0 else b := 0``,
* g, a, b and c drawn from {x, y, r},

108 bodies under the 64 annotations of x, y and r (L < H, one
permission): 6,912 systems.  The checker must agree with the declarative
search on each, and every system it accepts must pass the
noninterference harness.  Meet in place of merge accepts a strict subset.
"""

from itertools import product

from permflow import constraints
from permflow.basetypes import FunctionType, PermUniverse
from permflow.inference import SUBTYPE, check_system
from permflow.lattice import load_lattice
from permflow.nitest import nitest_system
from permflow.parser import parse_system
from permflow.syntax import Assign, FunDecl, If, IntLit, Var, While
from permflow.syntax import Test as PermTest
from permflow.system import System, validate_system

from .declarative import DeclarativeSearch, all_types

NAMES = ("x", "y", "r")


def guard_over_test_bodies():
    def test(a, b):
        return PermTest("p", Assign(a, IntLit(0)), Assign(b, IntLit(0)))
    bodies = [While(Var(g), test(a, b)) for g, a, b in product(NAMES, repeat=3)]
    bodies += [If(Var(g), test(a, b), Assign(c, IntLit(0)))
               for g, a, b, c in product(NAMES, repeat=4)]
    return bodies


def _meet_for_merge(p, a, b):
    return constraints.tmeet(a, b)


def test_guard_over_test_family_pins_the_merge_rule(monkeypatch):
    lattice = load_lattice(["L", "H"], [("L", "H")])
    universe = PermUniverse(("p",))
    types = all_types(lattice, 1)
    search = DeclarativeSearch(lattice, 1, {"p": 0})
    systems = accepted = accepted_by_meet = leaks = 0
    for body in guard_over_test_bodies():
        for t_x, t_y, t_r in product(types, repeat=3):
            decl = FunDecl("A", "f", ("x", "y"), "r", body,
                           FunctionType((t_x, t_y), t_r))
            csys = validate_system(
                System(lattice, universe, {"A": 0b1}, {"A.f": decl}, {}))
            ok = check_system(csys).ok
            assert ok == search.function_typable(
                ("x", "y"), "r", body, (t_x, t_y), t_r), (body, t_x, t_y, t_r)
            with monkeypatch.context() as m:
                m.setattr(constraints, "tmerge", _meet_for_merge)
                ok_by_meet = check_system(csys).ok
            assert ok or not ok_by_meet  # meet accepts a subset
            systems += 1
            accepted += ok
            accepted_by_meet += ok_by_meet
            if ok and not nitest_system(csys, domain=(0, 1), fuel=200).ok:
                leaks += 1
    assert (systems, accepted, accepted_by_meet, leaks) == (6_912, 4_134, 3_594, 0)


# A test under a guard on h: each branch writes a variable whose type is H
# where the branch runs (x for callers holding p, y everywhere), so the
# merge of the branches' types is H and the guard h : H may read it.  Their
# meet takes x's type where p is absent, L, so meet rejects f at {}.
GUARDED_TEST = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {p} {
  fun f(h : H, x : { {p}: H, _: L }, y : H) : H {
    init r = 0 in {
      if h then { test(p) x := 1 else y := 1 } else r := 0;
      return r
    }
  }
}
"""


def test_merge_rule_accepts_a_test_under_a_guard(monkeypatch):
    csys = validate_system(parse_system(GUARDED_TEST))
    assert check_system(csys).ok
    assert nitest_system(csys, domain=(0, 1)).ok
    monkeypatch.setattr(constraints, "tmerge", _meet_for_merge)
    (verdict,) = check_system(csys).verdicts
    assert verdict.error.kind == SUBTYPE and verdict.error.witness == 0
