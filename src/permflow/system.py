"""System container and static validation.

A system bundles the lattice, the permission universe, the per-app
permission assignment, declared constants, and the function tables. The
validator confirms the assumptions the analyses rely on: names the parser
reads and declarations of declared apps (so ``to_source`` prints text that
parses back to the system), closed function bodies, an acyclic call graph,
per-function unique bound names, matching call arity, no re-test of a
permission already on the enclosing trace, and it computes a topological
order of the call graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .basetypes import PermUniverse
from .lattice import Lattice
from .syntax import (
    BINARY_LEVEL,
    Assign,
    Block,
    CallAssign,
    Cmd,
    ConstDecl,
    Expr,
    FunDecl,
    If,
    IntLit,
    LetVar,
    Span,
    Test,
    Var,
    While,
    format_fun,
    is_name,
    subcommands,
)


class ValidationError(ValueError):
    def __init__(self, message: str, span: Span | None = None):
        self.span = span
        super().__init__(message if span is None else f"{span}: {message}")


class RecursiveCall(ValidationError):
    pass


class OpenFunction(ValidationError):
    pass


class RepeatedPermissionTest(ValidationError):
    pass


class ArityMismatch(ValidationError):
    pass


@dataclass
class System:
    lattice: Lattice
    universe: PermUniverse
    theta: dict[str, int]  # app name -> permission bitmask, in declaration order
    fd: dict[str, FunDecl]  # "A.f" -> declaration, in declaration order
    constants: dict[str, ConstDecl]
    # id(command) -> (command, closure), filled by permflow.interp on a
    # command's first run; a copy made with dataclasses.replace starts empty
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass
class CheckedSystem(System):
    """A system that passed ``validate_system``, with its call order."""

    topo: tuple[str, ...]  # callees before callers


def _free_expr_vars(e: Expr) -> dict[str, None]:
    """The variables of ``e`` in source order, so that an error names the
    first one whatever the string hash seed. A negative literal or an
    operator outside the table, which no source text spells, is a
    ValidationError."""
    if isinstance(e, IntLit):
        if e.value < 0:
            raise ValidationError(f"negative literal {e.value}", e.span)
        return {}
    if isinstance(e, Var):
        return {e.name: None}
    if e.op not in BINARY_LEVEL:
        raise ValidationError(f"unknown operator {e.op!r}", e.span)
    return _free_expr_vars(e.lhs) | _free_expr_vars(e.rhs)


def _require_name(name: str, what: str, span: Span | None = None) -> None:
    if not is_name(name):
        raise ValidationError(
            f"{what} {name!r} is not a name (an ASCII identifier, not a keyword)", span
        )


def validate_system(sys: System) -> CheckedSystem:
    for what, names in (("level", sys.lattice.names), ("permission", sys.universe.names),
                        ("app", sys.theta)):
        for name in names:
            _require_name(name, what)
    for const in sys.constants.values():
        _require_name(const.name, "constant", const.span)
        if const.app not in sys.theta:
            raise ValidationError(
                f"constant {const.name!r} of undeclared app {const.app!r}", const.span
            )
    for decl in sys.fd.values():
        _validate_function(sys, decl)
    return CheckedSystem(
        sys.lattice, sys.universe, sys.theta, sys.fd, sys.constants, _topo_order(sys)
    )


def _validate_function(sys: System, decl: FunDecl) -> None:
    consts = set(sys.constants)
    bound: set[str] = set()
    _require_name(decl.name, "function", decl.span)
    if decl.app not in sys.theta:
        raise ValidationError(f"function {decl.qualified} of undeclared app", decl.span)

    def bind(name: str, span: Span):
        _require_name(name, "variable", span)
        if name in bound:
            raise ValidationError(f"bound name {name!r} reused in {decl.qualified}", span)
        if name in consts:
            raise ValidationError(
                f"{name!r} shadows a declared constant in {decl.qualified}", span
            )
        bound.add(name)

    for p in decl.params:
        bind(p, decl.span)
    bind(decl.ret_var, decl.span)

    def check_expr(e: Expr, scope: set[str]):
        for v in _free_expr_vars(e):
            if v not in scope and v not in consts:
                raise OpenFunction(
                    f"variable {v!r} is not in scope in {decl.qualified}",
                    e.span,
                )

    def walk(c: Cmd, scope: set[str], tested: frozenset[str]):
        if isinstance(c, Assign):
            if c.name not in scope:
                raise OpenFunction(
                    f"assignment to {c.name!r} outside its scope in {decl.qualified}",
                    c.span,
                )
            check_expr(c.expr, scope)
        elif isinstance(c, CallAssign):
            if c.name not in scope:
                raise OpenFunction(
                    f"assignment to {c.name!r} outside its scope in {decl.qualified}",
                    c.span,
                )
            target = sys.fd.get(c.target)
            if target is None:
                raise ValidationError(f"call to unknown function {c.target}", c.span)
            if len(c.args) != len(target.params):
                raise ArityMismatch(
                    f"{c.target} takes {len(target.params)} argument(s), got {len(c.args)}",
                    c.span,
                )
            for a in c.args:
                check_expr(a, scope)
        elif isinstance(c, Block):
            for m in c.cmds:
                walk(m, scope, tested)
        elif isinstance(c, If):
            check_expr(c.cond, scope)
            walk(c.then, scope, tested)
            walk(c.els, scope, tested)
        elif isinstance(c, While):
            check_expr(c.cond, scope)
            walk(c.body, scope, tested)
        elif isinstance(c, Test):
            if c.perm not in sys.universe.names:
                raise ValidationError(f"test of unknown permission {c.perm!r}", c.span)
            if c.perm in tested:
                raise RepeatedPermissionTest(
                    f"permission {c.perm!r} is re-tested inside an enclosing test",
                    c.span,
                )
            inner = tested | {c.perm}
            walk(c.then, scope, inner)
            walk(c.els, scope, inner)
        elif isinstance(c, LetVar):
            if c.name in _free_expr_vars(c.init):
                raise ValidationError(
                    f"letvar {c.name!r} occurs in its own initializer", c.span
                )
            check_expr(c.init, scope)
            bind(c.name, c.span)
            walk(c.body, scope | {c.name}, tested)
        else:
            raise TypeError(f"not a command: {c!r}")

    if decl.body is not None:
        walk(decl.body, set(decl.params) | {decl.ret_var}, frozenset())

    if decl.annotation is not None and len(decl.annotation.params) != len(decl.params):
        raise ArityMismatch(
            f"annotation of {decl.qualified} has {len(decl.annotation.params)} "
            f"parameter type(s) for {len(decl.params)} parameter(s)",
            decl.span,
        )


def _topo_order(sys: System) -> tuple[str, ...]:
    """A callee-first order of the functions; raises on a recursive call."""
    edges = {
        q: sorted({c.target for c in subcommands(d.body) if isinstance(c, CallAssign)})
        for q, d in sys.fd.items()
    }

    state: dict[str, int] = {}  # 1 = on stack, 2 = done
    topo: list[str] = []
    # Depth-first with an explicit stack, so call chains cost no Python
    # frames: stack[k] is on the current path and pending[k] holds its
    # callees not yet visited.
    for root in sys.fd:
        if root in state:
            continue
        state[root] = 1
        stack, pending = [root], [iter(edges[root])]
        while stack:
            q = stack[-1]
            for callee in pending[-1]:
                if state.get(callee) == 1:
                    cycle = stack[stack.index(callee):] + [callee]
                    raise RecursiveCall(
                        "recursive call chain: " + " -> ".join(cycle),
                        sys.fd[callee].span,
                    )
                if callee not in state:
                    state[callee] = 1
                    stack.append(callee)
                    pending.append(iter(edges[callee]))
                    break
            else:
                state[q] = 2
                stack.pop()
                pending.pop()
                topo.append(q)
    return tuple(topo)


def to_source(sys: System) -> str:
    """Render a system back to its surface syntax."""
    from .basetypes import format_type

    lat = sys.lattice
    covers = ", ".join(f"{lat.name(a)} < {lat.name(b)}" for a, b in lat.covers())
    order = f" order {covers};" if covers else ""
    lines = [
        f"lattice {{ levels {', '.join(lat.names)};{order} }}",
        f"permissions {{ {', '.join(sys.universe.names)} }}",
    ]
    for app, mask in sys.theta.items():
        perms = ", ".join(sys.universe.set_names(mask))
        lines.append(f"app {app} perms {{{perms}}} {{")
        for const in sys.constants.values():
            if const.app != app:
                continue
            lines.append(
                f"  const {const.name} : {format_type(const.type, sys.universe)}"
                f" = {const.value};"
            )
        for decl in sys.fd.values():
            if decl.app == app:
                lines.append(format_fun(decl, sys.universe))
        lines.append("}")
    return "\n".join(lines) + "\n"
