"""Algorithmic type checking via the syntax-directed trace rules.

Judgments carry the permission trace accumulated from enclosing tests, and
every side condition is the partial subtyping check s·Λ ≤ t·Λ. Checking a
fully annotated system walks functions in callee-first order so call sites
always see ground function types.

The one non-syntax-directed point of the rules is the type chosen for a
letvar-bound local; it is resolved by a local least fixpoint over the
writes to the local, which is complete: if any choice admits a derivation,
the least one does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .basetypes import BaseType, embed, merge
from .constraints import (
    Constraint,
    FunSignature,
    TGround,
    VarSupply,
    _gen_cmd,
    generalize,
)
from .oracle import least_fixpoint
from .syntax import (
    Assign,
    BinOp,
    Block,
    CallAssign,
    Cmd,
    Expr,
    If,
    IntLit,
    LetVar,
    Span,
    Test,
    Var,
    While,
    subcommands,
)
from .system import CheckedSystem
from .traces import EPSILON, Trace, apply_trace

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


def partial_leq_witness(s: BaseType, t: BaseType, trace: Trace) -> int | None:
    """First permission set entailing ``trace`` where the order fails."""
    q = apply_trace(s, trace).leq_witness(apply_trace(t, trace))
    if q is None:
        return None
    return trace.remap(q)


def _require(kind, s, t, trace, span, fun, what) -> None:
    w = partial_leq_witness(s, t, trace)
    if w is not None:
        raise TypeViolation(
            kind,
            f"{what}: required type is not dominated at permission set index {w}",
            span,
            fun,
            lhs=s,
            rhs=t,
            trace=trace,
            witness=w,
        )


def type_expr_trace(gamma: dict[str, BaseType], trace: Trace, e: Expr, csys: CheckedSystem) -> BaseType:
    """Minimal type of an expression; literals sit at the lattice bottom."""
    lat = csys.lattice
    n = csys.universe.count
    if isinstance(e, IntLit):
        return embed(lat.bottom, lat, n)
    if isinstance(e, Var):
        if e.name in gamma:
            return gamma[e.name]
        return csys.constants[e.name].type
    if isinstance(e, BinOp):
        t1 = type_expr_trace(gamma, trace, e.lhs, csys)
        t2 = type_expr_trace(gamma, trace, e.rhs, csys)
        return t1.join(t2)
    raise TypeError(f"not an expression: {e!r}")


def _local_least_types(
    gamma: dict[str, BaseType],
    trace: Trace,
    app: str,
    c: Cmd,
    csys: CheckedSystem,
    fun: str,
) -> dict[str, BaseType]:
    """Least types for the letvar locals of ``c``.

    The trace rules leave the local's type open; every choice that admits a
    derivation dominates the least solution of the command's own side
    conditions, so the locals are solved by raise-only fixpoint iteration
    over exactly those conditions (upper bounds are left to the subsequent
    trace-rule walk, which reports the first violated one).
    """
    called = {n.target for n in subcommands(c) if isinstance(n, CallAssign)}
    sigs = {
        q: FunSignature(
            tuple(TGround(t) for t in csys.ft[q].params),
            TGround(csys.ft[q].ret),
            (),
        )
        for q in called
        if csys.ft[q] is not None
    }
    supply = VarSupply()
    term_gamma = {name: TGround(t) for name, t in gamma.items()}
    out: list[Constraint] = []
    _gen_cmd(term_gamma, trace, app, c, csys, sigs, supply, out, fun)
    solution = least_fixpoint(
        generalize(out),
        [info.vid for info in supply.infos],
        csys.lattice,
        csys.universe.count,
    )
    return {supply.info(vid).name: t for vid, t in solution.items()}


def check_cmd_trace(
    gamma: dict[str, BaseType],
    trace: Trace,
    app: str,
    c: Cmd,
    csys: CheckedSystem,
    fun: str = "",
    locals_map: dict[str, BaseType] | None = None,
) -> BaseType:
    """Writing-effect type of the command; raises TypeViolation on failure."""
    if locals_map is None:
        # Solve the letvar locals over the whole command: their bounds come
        # from anywhere in it (guards of enclosing loops included).
        locals_map = {}
        if any(isinstance(n, LetVar) for n in subcommands(c)):
            try:
                locals_map = _local_least_types(gamma, trace, app, c, csys, fun)
            except KeyError:
                raise TypeViolation(
                    ANNOTATION, "a called function has no type", c.span, fun
                ) from None
    if isinstance(c, Assign):
        t = type_expr_trace(gamma, trace, c.expr, csys)
        _require(SUBTYPE, t, gamma[c.name], trace, c.span, fun,
                 f"assignment to {c.name!r}")
        return gamma[c.name]
    if isinstance(c, CallAssign):
        ft = csys.ft[c.target]
        if ft is None:
            raise TypeViolation(
                ANNOTATION, f"called function {c.target} has no type", c.span, fun
            )
        theta_a = csys.theta[app]
        for i, (arg, pt) in enumerate(zip(c.args, ft.params)):
            s = type_expr_trace(gamma, trace, arg, csys)
            w = partial_leq_witness(s, pt.project(theta_a), trace)
            if w is not None:
                raise TypeViolation(
                    CALL_ARG,
                    f"argument {i + 1} of call to {c.target} exceeds the "
                    f"callee's view of its parameter",
                    c.span,
                    fun,
                    lhs=s,
                    rhs=pt.project(theta_a),
                    trace=trace,
                    witness=w,
                )
        ret_view = ft.ret.project(theta_a)
        w = partial_leq_witness(ret_view, gamma[c.name], trace)
        if w is not None:
            raise TypeViolation(
                RETURN,
                f"result of call to {c.target} does not fit {c.name!r}",
                c.span,
                fun,
                lhs=ret_view,
                rhs=gamma[c.name],
                trace=trace,
                witness=w,
            )
        return gamma[c.name]
    if isinstance(c, Block):
        effect = check_cmd_trace(gamma, trace, app, c.cmds[0], csys, fun, locals_map)
        for m in c.cmds[1:]:
            effect = effect.meet(check_cmd_trace(gamma, trace, app, m, csys, fun, locals_map))
        return effect
    if isinstance(c, If):
        t = type_expr_trace(gamma, trace, c.cond, csys)
        t1 = check_cmd_trace(gamma, trace, app, c.then, csys, fun, locals_map)
        t2 = check_cmd_trace(gamma, trace, app, c.els, csys, fun, locals_map)
        _require(SUBTYPE, t, t1.meet(t2), trace, c.span, fun, "if guard")
        return t1.meet(t2)
    if isinstance(c, While):
        s = type_expr_trace(gamma, trace, c.cond, csys)
        t = check_cmd_trace(gamma, trace, app, c.body, csys, fun, locals_map)
        _require(SUBTYPE, s, t, trace, c.span, fun, "while guard")
        return t
    if isinstance(c, Test):
        p = csys.universe.index(c.perm)
        t1 = check_cmd_trace(gamma, trace.append(p, True), app, c.then, csys, fun, locals_map)
        t2 = check_cmd_trace(gamma, trace.append(p, False), app, c.els, csys, fun, locals_map)
        return merge(p, t1, t2)
    if isinstance(c, LetVar):
        s = type_expr_trace(gamma, trace, c.init, csys)
        local = locals_map[c.name]
        _require(SUBTYPE, s, local, trace, c.span, fun,
                 f"initializer of letvar {c.name!r}")
        inner = dict(gamma)
        inner[c.name] = local
        return check_cmd_trace(inner, trace, app, c.body, csys, fun, locals_map)
    raise TypeError(f"not a command: {c!r}")


def check_function(csys: CheckedSystem, qname: str) -> TypeViolation | None:
    decl = csys.fd[qname]
    ft = csys.ft[qname]
    if ft is None:
        return TypeViolation(
            ANNOTATION, f"{qname} lacks a type annotation", decl.span, qname
        )
    gamma = dict(zip(decl.params, ft.params))
    gamma[decl.ret_var] = ft.ret
    try:
        if decl.body is not None:
            check_cmd_trace(gamma, EPSILON, decl.app, decl.body, csys, qname)
    except TypeViolation as err:
        return err
    return None


def check_system(csys: CheckedSystem) -> CheckReport:
    """Check every function in callee-first order; report in declaration order."""
    results: dict[str, FunctionVerdict] = {}
    for qname in csys.topo:
        err = check_function(csys, qname)
        results[qname] = FunctionVerdict(qname, err is None, err)
    report = CheckReport()
    for qname in csys.fun_order:
        report.verdicts.append(results[qname])
    return report
