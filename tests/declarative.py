"""Brute-force derivation search for the declarative typing rules.

Used only as a test oracle: commands are typed with an explicit subsumption
rule (command types are down-closed), local bindings take any enumerable
type, and a function declaration is typable when its body admits some type
under the annotated environment. Feasible only at micro scale (two-point
lattice, one permission), which is exactly where it arbitrates the
syntax-directed checker.

It also holds the trace algebra the declarative ``test`` rule reads and the
analyses never run: ``apply_trace`` re-indexes a base type through a trace,
``promote`` and ``demote`` apply a one-literal trace, and ``entailed_by``
says whether a permission set satisfies a trace.
"""

from __future__ import annotations

from itertools import product

from permflow.basetypes import BaseType, embed, merge
from permflow.syntax import (
    Assign,
    BinOp,
    Block,
    Cmd,
    Expr,
    If,
    IntLit,
    LetVar,
    Test,
    Var,
    While,
)
from permflow.traces import Trace


def apply_trace(t: BaseType, trace: Trace) -> BaseType:
    """``t`` read through ``trace``: t'(P) = t((P | pos) & ~neg)."""
    return BaseType(
        t.lattice,
        t.nperms,
        tuple(t.table[trace.remap(p)] for p in range(len(t.table))),
    )


def promote(t: BaseType, perm: int) -> BaseType:
    """``t`` as if permission ``perm`` were present: t'(P) = t(P+p)."""
    return apply_trace(t, Trace(pos=1 << perm))


def demote(t: BaseType, perm: int) -> BaseType:
    """``t`` as if permission ``perm`` were absent: t'(P) = t(P-p)."""
    return apply_trace(t, Trace(neg=1 << perm))


def entailed_by(trace: Trace, pset: int) -> bool:
    return (pset & trace.pos) == trace.pos and (pset & trace.neg) == 0


def all_types(lattice, nperms):
    return [
        BaseType(lattice, nperms, tbl)
        for tbl in product(range(len(lattice)), repeat=1 << nperms)
    ]


class DeclarativeSearch:
    def __init__(self, lattice, nperms: int, perm_index: dict[str, int]):
        self.lattice = lattice
        self.nperms = nperms
        self.perm_index = perm_index
        self.types = all_types(lattice, nperms)
        self._memo: dict = {}

    def min_expr_type(self, gamma: dict[str, BaseType], e: Expr) -> BaseType:
        if isinstance(e, IntLit):
            return embed(self.lattice.bottom, self.lattice, self.nperms)
        if isinstance(e, Var):
            return gamma[e.name]
        if isinstance(e, BinOp):
            return self.min_expr_type(gamma, e.lhs).join(
                self.min_expr_type(gamma, e.rhs)
            )
        raise TypeError(repr(e))

    def expr_has_type(self, gamma, e, t) -> bool:
        # subsumption closes expression types upward from the minimum
        return self.min_expr_type(gamma, e).leq(t)

    def cmd_has_type(self, gamma: dict[str, BaseType], c: Cmd, t: BaseType) -> bool:
        key = (tuple(sorted((k, v.table) for k, v in gamma.items())), id(c), t.table)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._memo[key] = False  # cycles cannot arise; a plain guard
        result = self._cmd_has_type(gamma, c, t)
        self._memo[key] = result
        return result

    def _cmd_has_type(self, gamma, c, t) -> bool:
        # command subsumption: typable at t when typable at some s >= t
        return any(
            t.leq(s) and self._cmd_base(gamma, c, s) for s in self.types
        )

    def _cmd_base(self, gamma, c, t) -> bool:
        if isinstance(c, Assign):
            return t == gamma[c.name] and self.expr_has_type(gamma, c.expr, gamma[c.name])
        if isinstance(c, Block):
            return all(self.cmd_has_type(gamma, m, t) for m in c.cmds)
        if isinstance(c, If):
            return (
                self.expr_has_type(gamma, c.cond, t)
                and self.cmd_has_type(gamma, c.then, t)
                and self.cmd_has_type(gamma, c.els, t)
            )
        if isinstance(c, While):
            return self.expr_has_type(gamma, c.cond, t) and self.cmd_has_type(
                gamma, c.body, t
            )
        if isinstance(c, LetVar):
            for s in self.types:
                if not self.expr_has_type(gamma, c.init, s):
                    continue
                inner = dict(gamma)
                inner[c.name] = s
                if self.cmd_has_type(inner, c.body, t):
                    return True
            return False
        if isinstance(c, Test):
            p = self.perm_index[c.perm]
            up = {k: promote(v, p) for k, v in gamma.items()}
            down = {k: demote(v, p) for k, v in gamma.items()}
            for t1 in self.types:
                if not self.cmd_has_type(up, c.then, t1):
                    continue
                for t2 in self.types:
                    if merge(p, t1, t2) == t and self.cmd_has_type(down, c.els, t2):
                        return True
            return False
        raise TypeError(repr(c))

    def function_typable(self, params, ret_var, body, param_types, ret_type) -> bool:
        gamma = dict(zip(params, param_types))
        gamma[ret_var] = ret_type
        if body is None:
            return True
        return any(self.cmd_has_type(gamma, body, s) for s in self.types)
