"""Guarded subtyping constraints and their generation.

Constraint terms follow a two-sided grammar: joins and projections may
appear on the left of ≤, meets, merges and projections on the right.
Ground subterms fold eagerly, so a term containing no variable is always a
single ground type.

Generation applies the trace rules as their two judgements, Γ ⊢ e : τ for
expressions and Γ; Λ ⊢ c : τ for commands under the trace Λ of the
enclosing permission tests, over one context per system: the literal type,
one ground term per declared constant, a counter of fresh variables, and
the current function's app permissions and constraint list. It records
every partial-subtyping side condition as a guarded constraint, tagged with
its provenance (rule and source span), instead of checking it, and hands
unknown function and local types fresh variables. Inference solves the
constraints; the checker evaluates them over the annotations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Union

from .basetypes import BaseType, embed, merge
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
)
from .system import CheckedSystem
from .traces import EPSILON, Trace


@dataclass(frozen=True)
class TVar:
    vid: int

    def __repr__(self):
        return f"a{self.vid}"


@dataclass(frozen=True)
class TGround:
    type: BaseType

    def __repr__(self):
        return "g"


@dataclass(frozen=True)
class TJoin:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class TMeet:
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class TMerge:
    perm: int
    then: "Term"
    els: "Term"


@dataclass(frozen=True)
class TProj:
    term: "Term"
    pset: int


Term = Union[TVar, TGround, TJoin, TMeet, TMerge, TProj]


def tjoin(a: Term, b: Term) -> Term:
    if isinstance(a, TGround) and isinstance(b, TGround):
        return TGround(a.type.join(b.type))
    return TJoin(a, b)


def tmeet(a: Term, b: Term) -> Term:
    if isinstance(a, TGround) and isinstance(b, TGround):
        return TGround(a.type.meet(b.type))
    return TMeet(a, b)


def tmerge(perm: int, a: Term, b: Term) -> Term:
    if isinstance(a, TGround) and isinstance(b, TGround):
        return TGround(merge(perm, a.type, b.type))
    return TMerge(perm, a, b)


def tproj(t: Term, pset: int) -> Term:
    if isinstance(t, TGround):
        return TGround(t.type.project(pset))
    return TProj(t, pset)


def term_vars(t: Term) -> set[int]:
    if isinstance(t, TVar):
        return {t.vid}
    if isinstance(t, TGround):
        return set()
    if isinstance(t, (TJoin, TMeet)):
        return term_vars(t.lhs) | term_vars(t.rhs)
    if isinstance(t, TMerge):
        return term_vars(t.then) | term_vars(t.els)
    return term_vars(t.term)


def eval_term(t: Term, pset: int, tables, lattice) -> int:
    """Level of the term at ``pset``; ``tables[vid][q]`` is variable ``vid``'s
    level at permission set ``q`` (a ``BaseType.table`` or a working list)."""
    if isinstance(t, TGround):
        return t.type.at(pset)
    if isinstance(t, TVar):
        return tables[t.vid][pset]
    if isinstance(t, TJoin):
        return lattice.join(
            eval_term(t.lhs, pset, tables, lattice),
            eval_term(t.rhs, pset, tables, lattice),
        )
    if isinstance(t, TMeet):
        return lattice.meet(
            eval_term(t.lhs, pset, tables, lattice),
            eval_term(t.rhs, pset, tables, lattice),
        )
    if isinstance(t, TMerge):
        branch = t.then if pset >> t.perm & 1 else t.els
        return eval_term(branch, pset, tables, lattice)
    if isinstance(t, TProj):
        return eval_term(t.term, t.pset, tables, lattice)
    raise TypeError(f"not a term: {t!r}")


@dataclass(frozen=True)
class Provenance:
    """The trace rule and command a constraint's side condition comes from.

    ``rule`` is one of assign, call-arg, call-ret, if-guard, while-guard and
    letvar-init; ``name`` is the variable written or bound, ``callee`` and
    ``arg`` (0-based) locate a call's argument.
    """

    rule: str
    span: Span
    name: str = ""
    callee: str = ""
    arg: int | None = None

    def describe(self) -> str:
        """What the side condition constrains, e.g. ``assignment to 'r'``."""
        if self.rule == "call-arg":
            return f"argument {self.arg + 1} of call to {self.callee}"
        if self.rule == "call-ret":
            return f"result of call to {self.callee}"
        return {
            "assign": f"assignment to {self.name!r}",
            "if-guard": "if guard",
            "while-guard": "while guard",
            "letvar-init": f"initializer of letvar {self.name!r}",
        }[self.rule]


@dataclass(frozen=True)
class Constraint:
    """(Λ, lhs ≤ rhs): lhs lies below rhs at every permission set that the
    guard Λ entails.

    Provenance takes no part in equality or hashing, so deduplication keeps
    the first occurrence of a side condition.
    """

    guard: Trace
    lhs: Term
    rhs: Term
    provenance: Provenance | None = field(default=None, compare=False)


@dataclass(frozen=True)
class GenConstraint:
    """(Λl, lhs ≤ Λr, rhs): each side guarded independently."""

    lguard: Trace
    lhs: Term
    rguard: Trace
    rhs: Term


def generalize(constraints) -> list[GenConstraint]:
    out = []
    for c in constraints:
        if isinstance(c, GenConstraint):
            out.append(c)
        else:
            out.append(GenConstraint(c.guard, c.lhs, c.guard, c.rhs))
    return out


def entailed_sets(guard: Trace, nperms: int):
    """The permission sets that ``guard`` entails, in ascending order:
    ``guard.pos`` with each subset of the permissions outside its support."""
    free = ((1 << nperms) - 1) & ~guard.support
    q = 0
    while True:
        yield guard.pos | q
        if q == free:
            return
        q = ((q | ~free) + 1) & free


def constraint_witness(c: Constraint, subst: dict[int, BaseType], lattice,
                       nperms: int) -> int | None:
    """The least permission set that ``c``'s guard entails and where lhs ≰
    rhs under ``subst``, if any."""
    tables = {v: subst[v].table for v in term_vars(c.lhs) | term_vars(c.rhs)}
    for p in entailed_sets(c.guard, nperms):
        if not lattice.leq(eval_term(c.lhs, p, tables, lattice),
                           eval_term(c.rhs, p, tables, lattice)):
            return p
    return None


@dataclass
class FunSignature:
    params: tuple[Term, ...]
    ret: Term


@dataclass
class GenOutput:
    signatures: dict[str, FunSignature]
    by_function: dict[str, list[Constraint]]  # each function's own, deduplicated

    def all_constraints(self) -> list[Constraint]:
        return list(dict.fromkeys(c for cs in self.by_function.values() for c in cs))


def gen_constraints(csys: CheckedSystem) -> GenOutput:
    """Each function's signature and own constraint set, callee-first.

    An annotated function's signature is its annotation, ground; an
    unannotated one's parameters and return get fresh variables. Every body
    then contributes its side conditions, with its letvar locals as fresh
    variables. A call site contributes the projection constraints onto the
    calling app's permissions; the callee's body constraints stay with the
    callee.
    """
    lat = csys.lattice
    literal = TGround(embed(lat.bottom, lat, csys.universe.count))
    constants = {name: TGround(k.type) for name, k in csys.constants.items()}
    ids = itertools.count()
    signatures: dict[str, FunSignature] = {}
    by_function: dict[str, list[Constraint]] = {}

    def expr(gamma, e: Expr) -> Term:
        """Γ ⊢ e : τ."""
        if isinstance(e, IntLit):
            return literal
        if isinstance(e, Var):
            return gamma[e.name] if e.name in gamma else constants[e.name]
        if isinstance(e, BinOp):
            return tjoin(expr(gamma, e.lhs), expr(gamma, e.rhs))
        raise TypeError(f"not an expression: {e!r}")

    def cmd(gamma, trace: Trace, c: Cmd) -> Term:
        """Γ; Λ ⊢ c : τ, recording each side condition in ``out``."""
        if isinstance(c, Assign):
            out.append(Constraint(trace, expr(gamma, c.expr), gamma[c.name],
                                  Provenance("assign", c.span, c.name)))
            return gamma[c.name]
        if isinstance(c, CallAssign):
            sig = signatures[c.target]
            for i, (arg, pt) in enumerate(zip(c.args, sig.params)):
                out.append(Constraint(trace, expr(gamma, arg), tproj(pt, theta_app),
                                      Provenance("call-arg", c.span, c.name, c.target, i)))
            out.append(Constraint(trace, tproj(sig.ret, theta_app), gamma[c.name],
                                  Provenance("call-ret", c.span, c.name, c.target)))
            return gamma[c.name]
        if isinstance(c, Block):
            # Meet is idempotent and associative: the distinct member terms
            # fold pairwise into a balanced tree, so the effect term's depth
            # is ⌈log2 n⌉ for n variables written.
            terms = list(dict.fromkeys(cmd(gamma, trace, m) for m in c.cmds))
            while len(terms) > 1:
                pairs = [tmeet(a, b) for a, b in zip(terms[::2], terms[1::2])]
                terms = pairs + terms[2 * len(pairs):]
            return terms[0]
        if isinstance(c, If):
            t = tmeet(cmd(gamma, trace, c.then), cmd(gamma, trace, c.els))
            out.append(Constraint(trace, expr(gamma, c.cond), t,
                                  Provenance("if-guard", c.span)))
            return t
        if isinstance(c, While):
            t = cmd(gamma, trace, c.body)
            out.append(Constraint(trace, expr(gamma, c.cond), t,
                                  Provenance("while-guard", c.span)))
            return t
        if isinstance(c, Test):
            p = csys.universe.index(c.perm)
            return tmerge(p, cmd(gamma, trace.append(p, True), c.then),
                          cmd(gamma, trace.append(p, False), c.els))
        if isinstance(c, LetVar):
            alpha = TVar(next(ids))
            out.append(Constraint(trace, expr(gamma, c.init), alpha,
                                  Provenance("letvar-init", c.span, c.name)))
            return cmd({**gamma, c.name: alpha}, trace, c.body)
        raise TypeError(f"not a command: {c!r}")

    for qname in csys.topo:
        decl = csys.fd[qname]
        ft = decl.annotation
        if ft is not None:
            sig = FunSignature(tuple(TGround(t) for t in ft.params), TGround(ft.ret))
        else:
            sig = FunSignature(tuple(TVar(next(ids)) for _ in decl.params),
                               TVar(next(ids)))
        gamma: dict[str, Term] = dict(zip(decl.params, sig.params))
        gamma[decl.ret_var] = sig.ret
        # the rules read these two, rebound per function: the calling app's
        # permissions and the function's side conditions
        theta_app = csys.theta[decl.app]
        out: list[Constraint] = []
        if decl.body is not None:
            cmd(gamma, EPSILON, decl.body)
        signatures[qname] = sig
        by_function[qname] = list(dict.fromkeys(out))
    return GenOutput(signatures, by_function)
