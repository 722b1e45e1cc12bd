"""The effect of a block, pinned where a guard reads it.

A block's command type is the meet of its members' types: the lowest level
any member writes at.  That type matters only under a guard, so the family
here puts a block of two writes at different levels under one:

* ``if g then { a := 1; b := 0 } else c := 0`` and
  ``while g do { a := 1; b := 0 }``,
* g, a, b and c drawn from {x, y, r},

108 bodies under the 64 annotations of x, y and r (L < H, one
permission): 6,912 systems.  The checker must agree with the declarative
search on each, and every system it accepts must pass the
noninterference harness.  A block typed by its last member alone accepts
``if y then { r := 1; x := 0 } else ...`` with y and x high and r low,
which leaks y into r.
"""

from itertools import product

from permflow.basetypes import FunctionType, PermUniverse
from permflow.inference import check_system
from permflow.lattice import load_lattice
from permflow.nitest import nitest_system
from permflow.syntax import Assign, Block, FunDecl, If, IntLit, Var, While
from permflow.system import System, validate_system

from .declarative import DeclarativeSearch, all_types

NAMES = ("x", "y", "r")


def guard_over_block_bodies():
    def writes(a, b):
        return Block((Assign(a, IntLit(1)), Assign(b, IntLit(0))))
    bodies = [While(Var(g), writes(a, b)) for g, a, b in product(NAMES, repeat=3)]
    bodies += [If(Var(g), writes(a, b), Assign(c, IntLit(0)))
               for g, a, b, c in product(NAMES, repeat=4)]
    return bodies


def test_guard_over_block_family_pins_the_block_effect():
    lattice = load_lattice(["L", "H"], [("L", "H")])
    universe = PermUniverse(("p",))
    types = all_types(lattice, 1)
    search = DeclarativeSearch(lattice, 1, {"p": 0})
    systems = accepted = leaky_rejected = 0
    for body in guard_over_block_bodies():
        for t_x, t_y, t_r in product(types, repeat=3):
            decl = FunDecl("A", "f", ("x", "y"), "r", body,
                           FunctionType((t_x, t_y), t_r))
            csys = validate_system(
                System(lattice, universe, {"A": 0b1}, {"A.f": decl}, {}))
            ok = check_system(csys).ok
            assert ok == search.function_typable(
                ("x", "y"), "r", body, (t_x, t_y), t_r), (body, t_x, t_y, t_r)
            leaks = not nitest_system(csys, domain=(0, 1), fuel=200).ok
            assert not (ok and leaks), (body, t_x.table, t_y.table, t_r.table)
            systems += 1
            accepted += ok
            leaky_rejected += leaks
    assert (systems, accepted, leaky_rejected) == (6_912, 3_594, 392)
