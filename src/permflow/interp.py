"""Big-step reference interpreter.

Commands execute against a mutable environment under an execution context
carrying the running app and the *caller's* permission set; a function call
runs the callee under the permissions of the calling app, never those of
the transitive caller. Arithmetic is 64-bit wrapping; fuel bounds the number
of evaluation-rule applications so diverging loops terminate with an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


class FuelExhausted(RuntimeError):
    pass


class UnboundVariable(RuntimeError):
    """Signals a validator bug; validated systems cannot reach this."""


def _wrap(v: int) -> int:
    v &= _U64 - 1
    return v - _U64 if v > _I64_MAX else v


@dataclass
class Fuel:
    remaining: int = DEFAULT_FUEL

    def tick(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise FuelExhausted("evaluation fuel exhausted")


@dataclass
class ExecContext:
    app: str
    caller_perms: int
    fuel: Fuel = field(default_factory=Fuel)


def eval_expr(env: dict[str, int], e: Expr, sys: System, fuel: Fuel) -> int:
    fuel.tick()
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
    ctx.fuel.tick()
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
            ctx.fuel.tick()
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
