"""End-to-end soundness over randomized whole programs.

Anything the checker or the inference engine accepts must pass the
exhaustive noninterference grid; generated programs are loop-free, so
every cell is conclusive.
"""

import random
from dataclasses import replace

from permflow.basetypes import BaseType, FunctionType
from permflow.inference import InferUnsat, annotate, check_system, infer_system
from permflow.nitest import nitest_system
from permflow.system import validate_system

from .conftest import SEED
from .progen import _Gen, random_checked_system


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
