"""Big-step reference interpreter, compiled to closures.

Commands execute against a mutable environment under an execution context
carrying the running app and the *caller's* permission set; a function call
runs the callee under the permissions of the calling app, never those of
the transitive caller. Arithmetic is 64-bit wrapping; fuel bounds the number
of evaluation-rule applications so diverging loops terminate with an error.

Each command is compiled once per ``System`` into nested Python closures
(Feeley and Lapalme, "Using closures for code generation", Computer
Languages 12(1), 1987), kept in ``System.compiled`` so that they live and
die with their system. Compilation resolves permission bits, constant
values, each operator with its 64-bit wrap, and each command's fixed fuel
cost: one unit for the command and one per node of its expressions. A
command charges its cost in one subtraction before its expressions run; a
``while`` charges one unit and its condition's nodes again per iteration.
Fuel is one counter that no program reads, and expressions are pure, so
charging a command's fixed cost before its expressions changes nothing a
run shows: a run exhausts exactly when the node-by-node walk
(``tests/walker.py``) does, a finished run leaves the same fuel, and
exhaustion leaves ``remaining`` at -1, as the walk does.

One run may cover a batch of environments that follow one control path.
A value is then an int, shared by the whole batch, or a ``Column``: one
int per cell of a grid over the axes it varies along, the parameters it
depends on, so an operator costs d^k for the k parameters its operands
depend on, not the batch size.  Expressions on ints run the int-only code;
a column's arithmetic, comparisons and truth test raise ``TypeError``,
which turns the expression to its column code, so an int run pays nothing
for batches.  The column code takes the operands that the int code
computed, so each node runs once per batch, however deep the nesting.  A
column is wrapped to 64 bits only when its least or greatest value leaves
the range.  An ``if`` or ``while`` whose condition is true for some
environments of the batch and false for others raises ``Diverged`` with
the condition's column, whose axes are the parameters the branch reads;
the caller splits the batch and reruns its parts from the start
(``nitest``).  ``test`` reads the caller's permission set, one int for the
whole batch, and never diverges.  Fuel stays one counter per batch:
environments on one path charge the same fuel, so they run out of it
together.

Races differ on systems that fail validation only. When a command reads an
unbound variable and also runs out of fuel, the walk raises whichever it
reaches first, while compiled code always raises ``FuelExhausted``; and an
``UnboundVariable`` from a command can leave less fuel than the walk,
which has charged only the nodes before the read. Likewise a ``test`` of an
undeclared permission fails when its body is compiled, not when the branch
runs.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from itertools import repeat
from math import prod
from operator import add, eq, lt, mul, sub

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
    Test,
    Var,
    While,
)
from .system import System

DEFAULT_FUEL = 10**6
_U64 = 1 << 64
_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)


class FuelExhausted(RuntimeError):
    pass


class UnboundVariable(RuntimeError):
    """Signals a validator bug; validated systems cannot reach this."""


class Diverged(Exception):
    """A batch's environments disagree on a branch; ``cond`` is the
    condition's column, nonzero where the ``then`` branch is taken or the
    loop entered."""

    def __init__(self, cond: Column):
        super().__init__("the batch's environments take different branches")
        self.cond = cond


def _wrap(v: int) -> int:
    v &= _U64 - 1
    return v - _U64 if v > _I64_MAX else v


class Fuel:
    """The evaluation steps a run may still take."""

    __slots__ = ("remaining",)

    def __init__(self, remaining: int = DEFAULT_FUEL):
        self.remaining = remaining


class ExecContext:
    __slots__ = ("app", "caller_perms", "fuel")

    def __init__(self, app: str, caller_perms: int, fuel: Fuel | None = None):
        self.app = app
        self.caller_perms = caller_perms
        self.fuel = Fuel() if fuel is None else fuel


def _exhausted(fuel: Fuel):
    fuel.remaining = -1
    raise FuelExhausted("evaluation fuel exhausted")


class Column(list):
    """A value that differs across a batch, never changed in place: one int
    per cell of a grid over ``axes``, ``(axis, size)`` pairs in axis order,
    row-major; without ``axes``, one axis of its own length.  Its arithmetic,
    comparisons and truth test raise ``TypeError``, as for an unsupported
    operand, so compiled code takes its int-only path under ``try`` and
    turns to columns on the error."""

    __slots__ = ("axes",)
    __add__ = __radd__ = __iadd__ = __mul__ = __rmul__ = __imul__ = None
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = None

    def __init__(self, values=(), axes: tuple[tuple[int, int], ...] | None = None):
        super().__init__(values)
        self.axes = ((-1, len(self)),) if axes is None else axes


# A value is an int, shared by every environment of a batch, or a column.
Value = int | Column
ExprCode = Callable[[dict[str, Value]], Value]
CmdCode = Callable[[dict[str, Value], ExecContext], None]


# ----------------------------------------------------------- expressions
#
# Ints take the int-only code, which raises ``TypeError`` when it meets a
# column; the column code that catches it builds a new column, wrapped only
# when its least or greatest value leaves 64 bits.  Each subterm runs
# once: the column code takes the operands that the int code computed, so
# nesting costs no more than it does for ints.  Columns on different axes
# are spread over the union of them, by index lists in a bounded cache.

def _column(values, axes) -> Column:
    col = Column(values, axes)
    if min(col) < _I64_MIN or max(col) > _I64_MAX:
        return Column(map(_wrap, col), axes)
    return col


@lru_cache(maxsize=64)
def _index(src: tuple, dst: tuple) -> tuple[int, ...]:
    """For each cell of a grid over the axes ``dst``, row-major, the place
    in a grid over ``src`` of the cell that agrees with it on their common
    axes and is at 0 on the others."""
    strides, step = {}, 1
    for axis, size in reversed(src):
        strides[axis] = step
        step *= size
    index = [0]
    for axis, size in dst:
        offsets = [k * strides.get(axis, 0) for k in range(size)]
        index = [i + o for i in index for o in offsets]
    return tuple(index)


def spread(v: Value, axes: tuple) -> list:
    """``v``'s value in each cell of a grid over ``axes``, row-major; a
    column is taken at 0 on its other axes."""
    if not isinstance(v, Column):
        return [v] * prod(size for _, size in axes)
    return v if v.axes == axes else list(map(v.__getitem__, _index(v.axes, axes)))


def _lift(op, x: Value, y: Value):
    """``op`` per environment, on two values of which one is a column: the
    results, and the axes they are laid out over."""
    if not isinstance(y, Column):
        return map(op, x, repeat(y)), x.axes
    if not isinstance(x, Column):
        return map(op, repeat(x), y), y.axes
    if x.axes == y.axes:
        return map(op, x, y), x.axes
    axes = tuple(sorted({*x.axes, *y.axes}))
    return map(op, spread(x, axes), spread(y, axes)), axes


def _decide(col: Column) -> bool:
    """The branch that every environment of a column of conditions takes."""
    if 0 not in col:
        return True
    if any(col):
        raise Diverged(col)
    return False


def _arith(op) -> Callable[[ExprCode, ExprCode], ExprCode]:
    """The closure maker for a node of ``op``, wrapped to 64 bits."""
    def make(a: ExprCode, b: ExprCode) -> ExprCode:
        def arith(env):
            x, y = a(env), b(env)
            try:
                v = op(x, y)
            except TypeError:  # a column
                return _column(*_lift(op, x, y))
            return v if _I64_MIN <= v <= _I64_MAX else _wrap(v)
        return arith
    return make


def _compare(op) -> Callable[[ExprCode, ExprCode], ExprCode]:
    """The closure maker for a node of ``op``, valued 1 or 0."""
    def make(a: ExprCode, b: ExprCode) -> ExprCode:
        def compare(env):
            x, y = a(env), b(env)
            try:
                return 1 if op(x, y) else 0
            except TypeError:  # a column
                values, axes = _lift(op, x, y)
                return Column(map(int, values), axes)
        return compare
    return make


# operator -> the maker of its nodes' closures from their operands' closures
_BINOPS = {"+": _arith(add), "-": _arith(sub), "*": _arith(mul),
           "==": _compare(eq), "<": _compare(lt)}


def _compile_expr(e: Expr, sys: System) -> tuple[ExprCode, int]:
    """The closure that evaluates ``e``, and the fuel it costs: its node count."""
    if isinstance(e, IntLit):
        value = _wrap(e.value)
        return (lambda env: value), 1
    if isinstance(e, Var):
        name = e.name
        const = sys.constants.get(name)
        if const is not None:
            value = _wrap(const.value)
            # a bound name shadows the constant, as in the walk
            return (lambda env: env.get(name, value)), 1

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(f"unbound variable {name!r}") from None
        return var, 1
    if isinstance(e, BinOp) and e.op in _BINOPS:
        lhs, n_lhs = _compile_expr(e.lhs, sys)
        rhs, n_rhs = _compile_expr(e.rhs, sys)
        return _BINOPS[e.op](lhs, rhs), 1 + n_lhs + n_rhs
    raise TypeError(f"not an expression: {e!r}")


# -------------------------------------------------------------- commands
#
# Every command closure starts by charging its fixed ``cost``, inlined:
#     fuel = ctx.fuel
#     left = fuel.remaining - cost
#     if left < 0: _exhausted(fuel)
#     fuel.remaining = left

def _compile_cmd(c: Cmd, sys: System) -> CmdCode:
    if isinstance(c, Assign):
        name = c.name
        expr, cost = _compile_expr(c.expr, sys)
        cost += 1

        def assign(env, ctx):
            fuel = ctx.fuel
            left = fuel.remaining - cost
            if left < 0:
                _exhausted(fuel)
            fuel.remaining = left
            env[name] = expr(env)
        return assign

    if isinstance(c, Block):
        members = tuple(_compile_cmd(m, sys) for m in c.cmds)

        def block(env, ctx):
            fuel = ctx.fuel
            left = fuel.remaining - 1
            if left < 0:
                _exhausted(fuel)
            fuel.remaining = left
            for member in members:
                member(env, ctx)
        return block

    if isinstance(c, If):
        cond, cost = _compile_expr(c.cond, sys)
        cost += 1
        then = _compile_cmd(c.then, sys)
        els = _compile_cmd(c.els, sys)

        def if_(env, ctx):
            fuel = ctx.fuel
            left = fuel.remaining - cost
            if left < 0:
                _exhausted(fuel)
            fuel.remaining = left
            v = cond(env)
            try:
                taken = True if v else False
            except TypeError:  # a column
                taken = _decide(v)
            if taken:
                then(env, ctx)
            else:
                els(env, ctx)
        return if_

    if isinstance(c, While):
        # entering costs the command and its condition; each iteration
        # costs one unit and the condition again
        cond, cost = _compile_expr(c.cond, sys)
        cost += 1
        body = _compile_cmd(c.body, sys)

        def while_(env, ctx):
            fuel = ctx.fuel
            left = fuel.remaining - cost
            if left < 0:
                _exhausted(fuel)
            fuel.remaining = left
            while True:
                v = cond(env)
                try:
                    if not v:
                        return
                except TypeError:  # a column
                    if not _decide(v):
                        return
                body(env, ctx)
                left = fuel.remaining - cost
                if left < 0:
                    _exhausted(fuel)
                fuel.remaining = left
        return while_

    if isinstance(c, Test):
        bit = 1 << sys.universe.index(c.perm)
        then = _compile_cmd(c.then, sys)
        els = _compile_cmd(c.els, sys)

        def test(env, ctx):
            fuel = ctx.fuel
            left = fuel.remaining - 1
            if left < 0:
                _exhausted(fuel)
            fuel.remaining = left
            if ctx.caller_perms & bit:
                then(env, ctx)
            else:
                els(env, ctx)
        return test

    if isinstance(c, LetVar):
        name = c.name
        init, cost = _compile_expr(c.init, sys)
        cost += 1
        body = _compile_cmd(c.body, sys)

        def letvar(env, ctx):
            fuel = ctx.fuel
            left = fuel.remaining - cost
            if left < 0:
                _exhausted(fuel)
            fuel.remaining = left
            env[name] = init(env)
            body(env, ctx)
            del env[name]  # the local never escapes its scope
        return letvar

    if isinstance(c, CallAssign):
        return _compile_call(c, sys)

    raise TypeError(f"not a command: {c!r}")


def _compile_call(c: CallAssign, sys: System) -> CmdCode:
    name, target, theta = c.name, c.target, sys.theta
    compiled = [_compile_expr(a, sys) for a in c.args]
    args = tuple(code for code, _ in compiled)
    cost = 1 + sum(n for _, n in compiled)
    # The callee is compiled on the first call, so that a call chain costs
    # compile-time stack for one body at a time.
    callee = None

    def call(env, ctx):
        nonlocal callee
        fuel = ctx.fuel
        left = fuel.remaining - cost
        if left < 0:
            _exhausted(fuel)
        fuel.remaining = left
        values = [a(env) for a in args]
        perms = theta[ctx.app]
        if callee is None:
            callee = _function(sys, target)
        env[name] = callee(values, perms, fuel)
    return call


def _code(sys: System, c: Cmd) -> CmdCode:
    """``c``'s closure, compiled on first use and kept in ``sys.compiled``."""
    entry = sys.compiled.get(id(c))
    if entry is None:
        # holding ``c`` keeps its id from being reused while the entry lives
        entry = sys.compiled[id(c)] = (c, _compile_cmd(c, sys))
    return entry[1]


def _function(sys: System, qname: str) -> Callable[[list[Value], int, Fuel], Value]:
    """A closure that runs ``qname`` on 64-bit arguments, for a caller's
    permissions."""
    decl = sys.fd[qname]
    params, ret_var, app = decl.params, decl.ret_var, decl.app
    body = None if decl.body is None else _code(sys, decl.body)

    def invoke(args, caller_perms, fuel):
        env = dict(zip(params, args))
        env[ret_var] = 0
        if body is not None:
            body(env, ExecContext(app, caller_perms, fuel))
        return env[ret_var]
    return invoke


def exec_cmd(env: dict[str, Value], ctx: ExecContext, c: Cmd,
             sys: System) -> dict[str, Value]:
    """Execute ``c``, mutating and returning ``env``: one environment, or a
    batch of them: a grid over its columns' axes."""
    _code(sys, c)(env, ctx)
    return env


def call_function(
    sys: System,
    qname: str,
    args: list[int],
    caller_perms: int,
    fuel: int = DEFAULT_FUEL,
) -> int:
    """Top-level entry: run ``qname`` as called by an app holding ``caller_perms``."""
    if qname not in sys.fd:
        raise KeyError(f"unknown function {qname}")
    decl = sys.fd[qname]
    if len(args) != len(decl.params):
        raise ValueError(
            f"{qname} takes {len(decl.params)} argument(s), got {len(args)}"
        )
    args = [v if _I64_MIN <= v <= _I64_MAX else _wrap(v) for v in args]
    return _function(sys, qname)(args, caller_perms, Fuel(fuel))
