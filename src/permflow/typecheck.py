"""Type checking of annotated functions against the trace rules.

The rules' side conditions are exactly the guarded constraints that
``constraints._gen_cmd`` generates, so checking a fully annotated function
is that same walk over ground types: generate the body's constraints and
report the first one, in generation order, that the annotations refute.
A call site reads the callee's annotation as a ground function type, so
each function is checked on its own.

The one non-syntax-directed point of the rules is the type chosen for a
letvar-bound local. It is resolved by the least solution of the body's
constraints, which is complete: if any choice admits a derivation, the
least one does. So the verdict is inference's own,
``solver.least_solution``, over the body's constraints with the locals as
the only variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .basetypes import BaseType
from .constraints import (
    Constraint,
    FunSignature,
    TGround,
    VarSupply,
    _gen_cmd,
    eval_term,
    ground_signature,
)
from .solver import least_solution
from .syntax import CallAssign, Span, subcommands
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


def check_function(csys: CheckedSystem, qname: str) -> TypeViolation | None:
    decl = csys.fd[qname]
    ft = decl.annotation
    if ft is None:
        return TypeViolation(
            ANNOTATION, f"{qname} lacks a type annotation", decl.span, qname
        )
    if decl.body is None:
        return None
    signatures: dict[str, FunSignature] = {}
    for node in subcommands(decl.body):
        if isinstance(node, CallAssign) and node.target not in signatures:
            callee = csys.fd[node.target].annotation
            if callee is None:
                return TypeViolation(
                    ANNOTATION, f"called function {node.target} has no type",
                    node.span, qname,
                )
            signatures[node.target] = ground_signature(callee)
    gamma = {p: TGround(t) for p, t in zip(decl.params, ft.params)}
    gamma[decl.ret_var] = TGround(ft.ret)
    supply = VarSupply()
    out: list[Constraint] = []
    _gen_cmd(gamma, EPSILON, decl.app, decl.body, csys, signatures, supply, out)
    locals_, refuted = least_solution(out, range(supply.count), csys.lattice,
                                      csys.universe.count)
    return None if refuted is None else _violation(*refuted, locals_, csys, qname)


def check_system(csys: CheckedSystem) -> CheckReport:
    """Check every function against the annotations, in declaration order."""
    report = CheckReport()
    for qname in csys.fd:
        err = check_function(csys, qname)
        report.verdicts.append(FunctionVerdict(qname, err is None, err))
    return report
