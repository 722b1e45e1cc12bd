"""End-to-end soundness over randomized whole programs, and exhaustively
over the micro-scale family of ``test_equivalence``.

Anything the checker or the inference engine accepts must pass the
exhaustive noninterference grid; randomly generated programs are
loop-free, so every cell is conclusive.
"""

import random
from dataclasses import replace
from itertools import product

from permflow.basetypes import BaseType, FunctionType, PermUniverse
from permflow.inference import InferUnsat, annotate, check_system, infer_system
from permflow.lattice import load_lattice
from permflow.nitest import nitest_system
from permflow.syntax import FunDecl
from permflow.system import System, validate_system

from .conftest import SEED
from .declarative import all_types
from .progen import _Gen, random_checked_system
from .test_equivalence import micro_bodies


def test_inferred_systems_are_noninterferent():
    rnd = random.Random(SEED + 10)
    for i in range(250):
        csys = random_checked_system(rnd)
        try:
            res = infer_system(csys)
        except InferUnsat:
            continue
        annotated = annotate(csys, res.types())
        # least solutions re-check under the trace rules, every body included
        assert check_system(annotated).ok, i
        rep = nitest_system(annotated, domain=(0, 1))
        assert rep.ok, (i, rep.violations[:1])
        assert not any(c.verdict == "inconclusive" for c in rep.cells)


def test_randomly_annotated_systems_accepted_only_if_noninterferent():
    rnd = random.Random(SEED + 11)
    accepted = 0
    for i in range(600):
        gen = _Gen(rnd)
        sys0 = gen.system()
        new_fd = {}
        size = 1 << gen.nperms
        for q, decl in sys0.fd.items():
            ann = FunctionType(
                tuple(
                    BaseType(gen.lat, gen.nperms,
                             tuple(rnd.randrange(len(gen.lat)) for _ in range(size)))
                    for _ in decl.params
                ),
                BaseType(gen.lat, gen.nperms,
                         tuple(rnd.randrange(len(gen.lat)) for _ in range(size))),
            )
            new_fd[q] = replace(decl, annotation=ann)
        csys = validate_system(replace(sys0, fd=new_fd))
        if not check_system(csys).ok:
            continue
        accepted += 1
        rep = nitest_system(csys, domain=(0, 1))
        assert rep.ok, (i, rep.violations[:1])
    assert accepted > 50  # the family genuinely exercises accepted systems


def test_micro_family_accepted_only_if_noninterferent():
    # every micro body under every annotation of x and r; the leak count
    # among rejected functions measures precision and bounds nothing
    lattice = load_lattice(["L", "H"], [("L", "H")])
    universe = PermUniverse(("p",))
    types = all_types(lattice, 1)
    systems = accepted = leaky_rejected = 0
    for body in micro_bodies():
        for t_x, t_r in product(types, types):
            decl = FunDecl("A", "f", ("x",), "r", body, FunctionType((t_x,), t_r))
            csys = validate_system(
                System(lattice, universe, {"A": 0}, {"A.f": decl}, {}))
            ok = check_system(csys).ok
            rep = nitest_system(csys, domain=(0, 1), fuel=200)
            systems += 1
            if ok:
                accepted += 1
                assert rep.ok, (body, t_x.table, t_r.table, rep.violations[:1])
            elif not rep.ok:
                leaky_rejected += 1
    assert (systems, accepted, leaky_rejected) == (16_512, 12_868, 845)
