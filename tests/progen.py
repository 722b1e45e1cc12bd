"""Random well-formed system generator for end-to-end soundness testing.

Produces small acyclic systems (no loops, so every run terminates and the
noninterference grid is exhaustive): random lattices, one or two
permissions, apps with random permission masks, leveled constants, and
call-free or call-bearing function bodies built with proper scoping, fresh
local names, and no nested re-tests.
"""

from __future__ import annotations

import random
from dataclasses import replace

from permflow.basetypes import FunctionType, PermUniverse, embed
from permflow.syntax import (
    Assign,
    BinOp,
    Block,
    CallAssign,
    ConstDecl,
    FunDecl,
    If,
    IntLit,
    LetVar,
    Test,
    Var,
    While,
    block,
)
from permflow.system import System, validate_system

from .conftest import lattice_family, random_basetype


class _Gen:
    def __init__(self, rnd: random.Random):
        self.rnd = rnd
        self.lat = rnd.choice(lattice_family())
        self.nperms = rnd.randint(1, 2)
        self.universe = PermUniverse(tuple(f"p{i}" for i in range(self.nperms)))
        self.local_counter = 0

    def expr(self, scope, consts, depth):
        rnd = self.rnd
        if depth <= 0 or rnd.random() < 0.4:
            pool = list(scope) + list(consts)
            if pool and rnd.random() < 0.7:
                return Var(rnd.choice(pool))
            return IntLit(rnd.randrange(3))
        op = rnd.choice(["+", "*", "<", "=="])
        return BinOp(op, self.expr(scope, consts, depth - 1),
                     self.expr(scope, consts, depth - 1))

    def cmd(self, scope, consts, callables, tested, depth):
        rnd = self.rnd
        roll = rnd.random()
        if depth <= 0 or roll < 0.35:
            target = rnd.choice(scope)
            if callables and rnd.random() < 0.35:
                callee = rnd.choice(callables)
                args = tuple(
                    self.expr(scope, consts, 1) for _ in callee.params
                )
                return CallAssign(target, callee.app, callee.name, args)
            return Assign(target, self.expr(scope, consts, rnd.randint(0, 2)))
        if roll < 0.55:
            return Block((
                self.cmd(scope, consts, callables, tested, depth - 1),
                self.cmd(scope, consts, callables, tested, depth - 1),
            ))
        if roll < 0.7:
            return If(
                self.expr(scope, consts, 1),
                self.cmd(scope, consts, callables, tested, depth - 1),
                self.cmd(scope, consts, callables, tested, depth - 1),
            )
        if roll < 0.88:
            free = [p for p in self.universe.names if p not in tested]
            if free:
                perm = rnd.choice(free)
                inner = tested | {perm}
                return Test(
                    perm,
                    self.cmd(scope, consts, callables, inner, depth - 1),
                    self.cmd(scope, consts, callables, inner, depth - 1),
                )
        self.local_counter += 1
        name = f"v{self.local_counter}"
        return LetVar(
            name,
            self.expr(scope, consts, 1),
            self.cmd(scope + [name], consts, callables, tested, depth - 1),
        )

    def system(self) -> System:
        rnd = self.rnd
        napps = rnd.randint(1, 3)
        apps = [f"App{i}" for i in range(napps)]
        theta = {a: rnd.randrange(1 << self.nperms) for a in apps}
        constants = {}
        for i in range(rnd.randint(0, 3)):
            name = f"k{i}"
            level = rnd.randrange(len(self.lat))
            constants[name] = ConstDecl(
                name, rnd.randrange(5), embed(level, self.lat, self.nperms),
                rnd.choice(apps),
            )
        fd = {}
        decls = []
        for i in range(rnd.randint(1, 3)):
            app = rnd.choice(apps)
            params = tuple(f"x{i}_{j}" for j in range(rnd.randint(0, 2)))
            ret = f"r{i}"
            body = self.cmd(
                list(params) + [ret], list(constants), list(decls),
                frozenset(), rnd.randint(1, 3),
            )
            decl = FunDecl(app, f"f{i}", params, ret, body, None)
            decls.append(decl)
            fd[decl.qualified] = decl
        return System(self.lat, self.universe, theta, fd, constants)


def random_checked_system(rnd: random.Random):
    return validate_system(_Gen(rnd).system())


def annotate_some(rnd: random.Random, csys, types=None):
    """``csys`` with about half of its functions annotated: with
    ``types[q]`` where given, else with random types."""
    n = csys.universe.count
    fd = {}
    for q, d in csys.fd.items():
        if rnd.random() < 0.5:
            ft = (types or {}).get(q) or FunctionType(
                tuple(random_basetype(rnd, csys.lattice, n) for _ in d.params),
                random_basetype(rnd, csys.lattice, n))
            d = replace(d, annotation=ft)
        fd[q] = d
    return replace(csys, fd=fd)


def _flat(c):
    """``c`` with every block rebuilt by ``syntax.block``, as the parser
    builds it: nested blocks spliced, a one-member block its member."""
    if isinstance(c, Block):
        return block([_flat(m) for m in c.cmds])
    if isinstance(c, (If, Test)):
        return replace(c, then=_flat(c.then), els=_flat(c.els))
    if isinstance(c, (While, LetVar)):
        return replace(c, body=_flat(c.body))
    return c


def as_parsed(csys):
    """The system that ``parse_system(to_source(csys))`` builds: blocks
    flat, and declarations listed app by app. The generator makes nested
    blocks and interleaves apps, which the source cannot state."""
    apps = list(csys.theta)
    fd = sorted(csys.fd.values(), key=lambda d: apps.index(d.app))
    consts = sorted(csys.constants.values(), key=lambda k: apps.index(k.app))
    return validate_system(System(
        csys.lattice, csys.universe, csys.theta,
        {d.qualified: replace(d, body=d.body and _flat(d.body)) for d in fd},
        {k.name: k for k in consts},
    ))
