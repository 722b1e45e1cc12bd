"""Whole-system type inference.

Generates one joint constraint system over every body, solves it for the
least substitution theta, and instantiates the function-type table. An
annotated function enters generation with its annotation as its ground
signature, so its body's constraints range over its letvar locals and the
signature variables of the inferred functions it calls: checking it is
solving them. The least solution therefore exists exactly when some typing
of the inferred functions makes every body check, annotated ones included,
and ``solve`` decides that in one pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .basetypes import BaseType, FunctionType
from .constraints import Constraint, TGround, TVar, gen_constraints
from .solver import UnsatError, solve
from .system import CheckedSystem
# Re-exported, not called: perfbench/tracer.py wraps it by this module's name.
from .typecheck import check_system

__all__ = ["FunctionInference", "InferResult", "InferUnsat", "annotate",
           "check_system", "infer_system"]


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

    def __init__(self, err: UnsatError, functions: list[str], reason: str,
                 core: list[tuple[str, Constraint]]):
        names = ", ".join(functions) if functions else "the system"
        super().__init__(f"no type assignment satisfies {names}: {reason}")
        self.cause = err
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
        raise InferUnsat(err, functions, _reason(err, csys), core) from err
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
