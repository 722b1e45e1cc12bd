"""The AST-walking interpreter: the oracle for ``permflow.interp``.

It walks each command and expression node by node and spends one unit of
fuel per node it enters, plus one per ``while`` iteration, at the moment it
enters it.  ``permflow.interp`` compiles each body to closures once and
charges each command's fixed cost, or a whole block of assignments', in one
subtraction; the two must agree on every result, every exception type and
the fuel left over, save for the races on systems that fail validation
that ``permflow.interp``'s docstring lists.  The walk runs one environment
of ints at a time; ``split`` takes a batch of ``permflow.interp`` apart
into the environments it holds, each column read cell by cell from its
axes, independently of ``permflow.interp``'s index lists.  Used only as a test oracle
(``tests/test_compiled_interp.py``) and as the slow side of the
relative-speed guard in ``tests/test_scaling.py``.
"""

from __future__ import annotations

from itertools import product
from math import prod

from permflow.interp import (
    DEFAULT_FUEL,
    Column,
    ExecContext,
    Fuel,
    FuelExhausted,
    UnboundVariable,
    _wrap,
)
from permflow.syntax import (
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
from permflow.system import System


def axes_of(env: dict) -> tuple:
    """The union of the axes of a batch's columns, in axis order."""
    return tuple(sorted({a for v in env.values() if isinstance(v, Column)
                         for a in v.axes}))


def spread(v, axes: tuple) -> list:
    """``v``'s value in each environment of a grid over ``axes``, row-major:
    an int is shared by all of them, and a column gives each environment
    the value at the environment's coordinates on the column's axes."""
    out = []
    for coords in product(*(range(size) for _, size in axes)):
        if not isinstance(v, Column):
            out.append(v)
            continue
        at = dict(zip((axis for axis, _ in axes), coords))
        k = 0
        for axis, size in v.axes:
            k = k * size + at[axis]
        out.append(v[k])
    return out


def split(env: dict, axes: tuple | None = None) -> list[dict[str, int]]:
    """The environments of a batch, a grid over ``axes``: by default the
    union of its columns' axes, one environment when there is no column."""
    if axes is None:
        axes = axes_of(env)
    values = {name: spread(v, axes) for name, v in env.items()}
    return [{name: vals[k] for name, vals in values.items()}
            for k in range(prod(size for _, size in axes))]


def _tick(fuel: Fuel) -> None:
    fuel.remaining -= 1
    if fuel.remaining < 0:
        raise FuelExhausted("evaluation fuel exhausted")


def eval_expr(env: dict[str, int], e: Expr, sys: System, fuel: Fuel) -> int:
    _tick(fuel)
    if isinstance(e, IntLit):
        return _wrap(e.value)
    if isinstance(e, Var):
        if e.name in env:
            return env[e.name]
        const = sys.constants.get(e.name)
        if const is not None:
            return _wrap(const.value)
        raise UnboundVariable(f"unbound variable {e.name!r}")
    if isinstance(e, BinOp):
        a = eval_expr(env, e.lhs, sys, fuel)
        b = eval_expr(env, e.rhs, sys, fuel)
        if e.op == "+":
            return _wrap(a + b)
        if e.op == "-":
            return _wrap(a - b)
        if e.op == "*":
            return _wrap(a * b)
        if e.op == "==":
            return 1 if a == b else 0
        if e.op == "<":
            return 1 if a < b else 0
    raise TypeError(f"not an expression: {e!r}")


def exec_cmd(env: dict[str, int], ctx: ExecContext, c: Cmd, sys: System) -> dict[str, int]:
    """Execute ``c``, mutating and returning ``env``."""
    _tick(ctx.fuel)
    if isinstance(c, Assign):
        env[c.name] = eval_expr(env, c.expr, sys, ctx.fuel)
        return env
    if isinstance(c, CallAssign):
        args = [eval_expr(env, a, sys, ctx.fuel) for a in c.args]
        env[c.name] = _invoke(sys, c.target, args, sys.theta[ctx.app], ctx.fuel)
        return env
    if isinstance(c, Block):
        for m in c.cmds:
            exec_cmd(env, ctx, m, sys)
        return env
    if isinstance(c, If):
        v = eval_expr(env, c.cond, sys, ctx.fuel)
        return exec_cmd(env, ctx, c.then if v != 0 else c.els, sys)
    if isinstance(c, While):
        while True:
            v = eval_expr(env, c.cond, sys, ctx.fuel)
            if v == 0:
                return env
            exec_cmd(env, ctx, c.body, sys)
            _tick(ctx.fuel)
    if isinstance(c, Test):
        bit = 1 << sys.universe.index(c.perm)
        taken = c.then if ctx.caller_perms & bit else c.els
        return exec_cmd(env, ctx, taken, sys)
    if isinstance(c, LetVar):
        env[c.name] = eval_expr(env, c.init, sys, ctx.fuel)
        exec_cmd(env, ctx, c.body, sys)
        del env[c.name]  # the local never escapes its scope
        return env
    raise TypeError(f"not a command: {c!r}")


def _invoke(sys: System, qname: str, args: list[int], caller_perms: int, fuel: Fuel) -> int:
    decl = sys.fd[qname]
    env = {p: _wrap(v) for p, v in zip(decl.params, args)}
    env[decl.ret_var] = 0
    ctx = ExecContext(decl.app, caller_perms, fuel)
    if decl.body is not None:
        exec_cmd(env, ctx, decl.body, sys)
    return env[decl.ret_var]


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
    return _invoke(sys, qname, list(args), caller_perms, Fuel(fuel))
