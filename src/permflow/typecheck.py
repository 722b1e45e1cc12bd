"""Type checking of annotated functions against the trace rules.

The rules' side conditions are exactly the guarded constraints that
``constraints.gen_constraints`` generates, and an annotated function enters
generation with its annotation as its ground signature. Checking a system is
therefore one generation pass: each function's own constraints are decided
on their own, and the first one, in generation order, that the annotations
refute is reported. A call site reads the callee's annotation, so a call to
an unannotated callee is reported at the first such call, before any side
condition.

The one non-syntax-directed point of the rules is the type chosen for a
letvar-bound local. It is resolved by the least solution of the body's
constraints, which is complete: if any choice admits a derivation, the
least one does. So the verdict is inference's own,
``solver.refutation``, over the body's constraints, whose only variables
are the locals; the tables of a violation come from the same least
solution of the constraints that can decide it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .basetypes import BaseType
from .constraints import Constraint, eval_term, gen_constraints
from .solver import refutation
from .syntax import Span
from .system import CheckedSystem
from .traces import EPSILON, Trace

SUBTYPE = "SubtypeViolation"
CALL_ARG = "CallArgViolation"
RETURN = "ReturnViolation"
ANNOTATION = "AnnotationMismatch"


@dataclass
class TypeViolation(Exception):
    kind: str
    message: str
    span: Span
    function: str = ""
    lhs: BaseType | None = None
    rhs: BaseType | None = None
    trace: Trace = EPSILON
    witness: int | None = None

    def __str__(self):
        return f"{self.span}: {self.kind}: {self.message}"


@dataclass
class FunctionVerdict:
    function: str
    ok: bool
    error: TypeViolation | None = None


@dataclass
class CheckReport:
    verdicts: list[FunctionVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)


def _violation(c: Constraint, q: int, locals_: dict[int, BaseType],
               csys: CheckedSystem, fun: str) -> TypeViolation:
    """The report for constraint ``c`` refuted at permission set ``q``, its
    witness: a set that ``c.guard`` entails."""
    lat = csys.lattice
    n = csys.universe.count
    tables = {vid: t.table for vid, t in locals_.items()}
    lhs, rhs = (
        BaseType(lat, n, tuple(eval_term(t, p, tables, lat) for p in range(1 << n)))
        for t in (c.lhs, c.rhs)
    )
    prov = c.provenance
    if prov.rule == "call-arg":
        kind = CALL_ARG
        message = f"{prov.describe()} exceeds the callee's view of its parameter"
    elif prov.rule == "call-ret":
        kind = RETURN
        message = f"{prov.describe()} does not fit {prov.name!r}"
    else:
        kind = SUBTYPE
        message = f"{prov.describe()}: required type is not dominated"
    return TypeViolation(kind, message, prov.span, fun, lhs, rhs, c.guard, q)


def _first_violation(csys: CheckedSystem, qname: str,
                     body: list[Constraint]) -> TypeViolation | None:
    """The verdict on ``qname`` from its generated constraints ``body``."""
    decl = csys.fd[qname]
    if decl.annotation is None:
        return TypeViolation(
            ANNOTATION, f"{qname} lacks a type annotation", decl.span, qname
        )
    # Generation appends a call's constraints in source order and
    # deduplication keeps first occurrences, so the first constraint naming
    # an unannotated callee comes from its first call.
    for c in body:
        callee = c.provenance.callee
        if callee and csys.fd[callee].annotation is None:
            return TypeViolation(
                ANNOTATION, f"called function {callee} has no type",
                c.provenance.span, qname,
            )
    _, locals_, refuted = refutation(body, csys.lattice, csys.universe.count)
    return None if refuted is None else _violation(*refuted, locals_, csys, qname)


def check_system(csys: CheckedSystem) -> CheckReport:
    """Check every function against the annotations, in declaration order."""
    gen = gen_constraints(csys)
    report = CheckReport()
    for qname in csys.fd:
        err = _first_violation(csys, qname, gen.by_function[qname])
        report.verdicts.append(FunctionVerdict(qname, err is None, err))
    return report
