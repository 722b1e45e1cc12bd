"""Inference rechecks only annotated bodies; the full recheck is the oracle.

``infer_system`` runs the checker on annotated bodies alone and reports
every inferred body as ok, because ``solve`` has already decided its
constraints against the least solution (the argument is in
``permflow.inference``). Here the full recheck of the annotated result,
every body included, must agree with ``InferResult.recheck`` function by
function, on the corpus and on derandomized ``progen`` systems, half of
them with random annotations on about half of their functions so that
annotated bodies fail too.
"""

import glob
import os
import random
from dataclasses import replace

from permflow import typecheck
from permflow.basetypes import BaseType, FunctionType
from permflow.inference import InferUnsat, annotate, infer_system
from permflow.parser import parse_system
from permflow.system import validate_system
from permflow.typecheck import check_system

from .conftest import SEED
from .progen import _Gen
from .test_scaling import fan_source

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return validate_system(parse_system(fh.read()))


def _agrees_with_full_recheck(csys):
    """The (annotated, inferred) counts of bodies the full recheck rejects,
    or None when the system has no typing."""
    try:
        result = infer_system(csys)
    except InferUnsat:
        return None
    full = check_system(annotate(csys, result.types()))
    assert result.recheck.verdicts == full.verdicts
    inferred = {f.function for f in result.functions if f.inferred}
    failed = [v.function for v in full.verdicts if not v.ok]
    return (sum(q not in inferred for q in failed), sum(q in inferred for q in failed))


def _randomly_annotated(rnd: random.Random):
    gen = _Gen(rnd)
    sys0 = gen.system()
    if rnd.random() < 0.5:
        return validate_system(sys0)
    size = 1 << gen.nperms

    def random_type():
        return BaseType(gen.lat, gen.nperms,
                        tuple(rnd.randrange(len(gen.lat)) for _ in range(size)))

    fd = {
        q: replace(d, annotation=FunctionType(
            tuple(random_type() for _ in d.params), random_type()))
        if rnd.random() < 0.5 else d
        for q, d in sys0.fd.items()
    }
    return validate_system(replace(sys0, fd=fd))


def test_corpus_recheck_matches_full_recheck():
    annotated_failures = 0
    for path in sorted(glob.glob(os.path.join(PROGRAMS, "*.pf"))):
        counts = _agrees_with_full_recheck(_load(path))
        assert counts is not None, path  # every corpus program infers
        annotated_failures += counts[0]
        assert counts[1] == 0, path
    # laundering, laundering_fixed and leaky exit 1 through the recheck
    assert annotated_failures >= 3


def test_progen_recheck_matches_full_recheck():
    rnd = random.Random(SEED + 12)
    systems = annotated_failures = 0
    for i in range(1200):
        counts = _agrees_with_full_recheck(_randomly_annotated(rnd))
        if counts is None:
            continue
        systems += 1
        annotated_failures += counts[0]
        assert counts[1] == 0, i
    assert systems >= 1000
    # the family genuinely exercises failing annotated bodies
    assert annotated_failures > 100


def _count_checks(monkeypatch) -> list[str]:
    calls: list[str] = []
    real = typecheck.check_function

    def counting(csys, qname):
        calls.append(qname)
        return real(csys, qname)

    monkeypatch.setattr(typecheck, "check_function", counting)
    return calls


def test_fully_inferred_fan_checks_no_body(monkeypatch):
    csys = validate_system(parse_system(fan_source(2, 40)))
    calls = _count_checks(monkeypatch)
    result = infer_system(csys)
    assert calls == []
    assert result.ok and len(result.recheck.verdicts) == 40


def test_mixed_system_checks_each_annotated_body_once(monkeypatch):
    csys = _load(os.path.join(PROGRAMS, "mixed_annot.pf"))
    calls = _count_checks(monkeypatch)
    result = infer_system(csys)
    assert calls == ["Lib.double"]  # the one annotated function
    assert result.ok
