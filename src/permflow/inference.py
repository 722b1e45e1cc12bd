"""Type checking and whole-system type inference.

The trace rules' side conditions are exactly the guarded constraints that
``constraints.gen_constraints`` generates, and an annotated function enters
generation with its annotation as its ground signature, so its body's
constraints range over its letvar locals and the signature variables of the
inferred functions it calls. Both verdicts are one generation pass decided
in the lattice of security types.

``check_system`` decides each function's own constraints on their own and
reports the first one, in generation order, that the annotations refute. A
call site reads the callee's annotation, so a call to an unannotated callee
is reported at the first such call, before any side condition. The type of
a letvar-bound local is resolved by the least solution of the body's
constraints, which is complete: if any choice admits a derivation, the
least one does. So the verdict is ``solver.refutation`` over the body's
constraints, and the tables of a violation come from the same least
solution.

``infer_system`` solves one joint system over every body for the least
substitution theta and instantiates the function-type table. The least
solution exists exactly when some typing of the inferred functions makes
every body check, annotated ones included, and ``solve`` decides that in
one pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .basetypes import BaseType, FunctionType
from .constraints import Constraint, TGround, TVar, eval_term, gen_constraints
from .solver import UnsatError, refutation, solve
from .syntax import Span
from .system import CheckedSystem
from .traces import EPSILON, Trace

SUBTYPE = "SubtypeViolation"
CALL_ARG = "CallArgViolation"
RETURN = "ReturnViolation"
ANNOTATION = "AnnotationMismatch"


@dataclass
class TypeViolation:
    kind: str
    message: str
    span: Span
    lhs: BaseType | None = None
    rhs: BaseType | None = None
    trace: Trace = EPSILON
    witness: int | None = None


@dataclass
class FunctionVerdict:
    function: str
    error: TypeViolation | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CheckReport:
    verdicts: list[FunctionVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)


def _violation(c: Constraint, q: int, locals_: dict[int, BaseType],
               csys: CheckedSystem) -> TypeViolation:
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
    return TypeViolation(kind, message, prov.span, lhs, rhs, c.guard, q)


def _first_violation(csys: CheckedSystem, qname: str,
                     body: list[Constraint]) -> TypeViolation | None:
    """The verdict on ``qname`` from its generated constraints ``body``."""
    decl = csys.fd[qname]
    if decl.annotation is None:
        return TypeViolation(ANNOTATION, f"{qname} lacks a type annotation", decl.span)
    # Generation appends a call's constraints in source order and
    # deduplication keeps first occurrences, so the first constraint naming
    # an unannotated callee comes from its first call.
    for c in body:
        callee = c.provenance.callee
        if callee and csys.fd[callee].annotation is None:
            return TypeViolation(
                ANNOTATION, f"called function {callee} has no type", c.provenance.span
            )
    _, locals_, refuted = refutation(body, csys.lattice, csys.universe.count)
    return None if refuted is None else _violation(*refuted, locals_, csys)


def check_system(csys: CheckedSystem) -> CheckReport:
    """Check every function against the annotations, in declaration order."""
    gen = gen_constraints(csys)
    return CheckReport([
        FunctionVerdict(qname, _first_violation(csys, qname, gen.by_function[qname]))
        for qname in csys.fd
    ])


@dataclass
class FunctionInference:
    function: str
    type: FunctionType
    inferred: bool  # False when the annotation was echoed
    constraint_count: int


@dataclass
class InferResult:
    functions: list[FunctionInference]
    stage_timings: dict[str, float] = field(default_factory=dict)

    def types(self) -> dict[str, FunctionType]:
        return {f.function: f.type for f in self.functions}


class InferUnsat(Exception):
    """``reason`` names the refuted constraint's rule, source location and
    witness permission set; ``core`` pairs each core constraint, in core
    order, with the function that owns it."""

    def __init__(self, functions: list[str], reason: str,
                 core: list[tuple[str, Constraint]]):
        super().__init__(
            f"no type assignment satisfies {', '.join(functions)}: {reason}")
        self.functions = functions
        self.reason = reason
        self.core = core


def infer_system(csys: CheckedSystem) -> InferResult:
    lattice = csys.lattice
    nperms = csys.universe.count

    t0 = time.perf_counter()
    gen = gen_constraints(csys)
    all_constraints = gen.all_constraints()
    requested = tuple(
        t.vid
        for sig in gen.signatures.values()
        for t in (*sig.params, sig.ret)
        if isinstance(t, TVar)
    )
    t1 = time.perf_counter()

    try:
        theta = solve(all_constraints, lattice, nperms, requested)
    except UnsatError as err:
        functions, core = _blame(err, gen)
        raise InferUnsat(functions, _reason(err, csys), core) from err
    t2 = time.perf_counter()

    functions: list[FunctionInference] = []
    for qname, decl in csys.fd.items():
        sig = gen.signatures[qname]
        params = tuple(_resolve(t, theta) for t in sig.params)
        functions.append(
            FunctionInference(
                qname,
                FunctionType(params, _resolve(sig.ret, theta)),
                inferred=decl.annotation is None,
                constraint_count=len(gen.by_function[qname]),
            )
        )
    return InferResult(functions, {"generate": t1 - t0, "solve": t2 - t1})


def _resolve(term, theta) -> BaseType:
    if isinstance(term, TGround):
        return term.type
    return theta[term.vid]


def _reason(err: UnsatError, csys: CheckedSystem) -> str:
    c = err.constraint
    prov = c.provenance
    witness = csys.universe.format_set(err.witness)
    return (f"{prov.rule} constraint at {prov.span} ({prov.describe()}) "
            f"is refuted at permission set {witness}")


def _blame(err: UnsatError, gen) -> tuple[list[str], list[tuple[str, Constraint]]]:
    """The functions holding a core constraint, in ``by_function`` order,
    and each core constraint paired with the first of them to hold it (the
    one whose copy ``all_constraints`` kept)."""
    holders: dict[Constraint, list[str]] = {c: [] for c in err.core}
    for qname, cs in gen.by_function.items():
        for c in cs:
            if c in holders:
                holders[c].append(qname)
    blamed = {q for qs in holders.values() for q in qs}
    functions = [q for q in gen.by_function if q in blamed]
    return functions, [(holders[c][0], c) for c in err.core]


def annotate(csys: CheckedSystem, ft: dict[str, FunctionType]) -> CheckedSystem:
    """A copy of the system in which each function named in ``ft`` carries
    that type as its annotation."""
    fd = {q: replace(d, annotation=ft.get(q, d.annotation)) for q, d in csys.fd.items()}
    return replace(csys, fd=fd)
