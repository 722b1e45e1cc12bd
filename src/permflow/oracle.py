"""Least and greatest solutions by a dependency-indexed worklist.

Every (variable, permission set) pair is one unknown lattice element, a
*cell*. A constraint (Λl, lhs ≤ Λr, rhs) holds when, at every permission
set q, lhs at Λl(q) lies below rhs at Λr(q); each distinct pair of remapped
points (Λl(q), Λr(q)) is one *instance* of it. A generated ``Constraint``
is taken as it is, with Λl = Λr its one guard. The least solution starts
every cell at bottom and raises the cells under an instance's right side
just enough to cover its left side. An index maps each cell to the
instances whose left side reads it, and only the readers of a raised cell
go back on the worklist, so an instance is re-examined at most once per
raise of a cell it reads. This is the textbook least-solution algorithm for
atomic inequalities over a finite lattice (Rehof & Mogensen, "Tractable
constraints in finite semilattices", SCP 1999).

Ground parts of a right side are never raised: a constraint they leave
violated at the least fixpoint is violated by every solution. The one
verdict built on that, ``solver.least_solution``, reports the first such
constraint with ``constraint_witness``; inference, the checker and the
unsat-core search all call it. ``oracle_solve`` repeats its few lines
because ``solver`` imports this module. The greatest solution is the dual:
every cell starts at top and the cells under an instance's left side are
lowered to its right side. The symbolic pipeline in ``solver`` is the
independent reference that the differential suite checks these fixpoints
against.
"""

from __future__ import annotations

from collections import deque

from .basetypes import BaseType
from .constraints import (
    TGround,
    TJoin,
    TMeet,
    TMerge,
    TProj,
    TVar,
    constraint_witness,
    eval_term,
    point_classes,
    term_vars,
)
from .lattice import Lattice


class OracleUnsat(Exception):
    def __init__(self, constraint, witness: int):
        super().__init__(
            f"constraint refuted at permission set {witness}: {constraint!r}"
        )
        self.constraint = constraint
        self.witness = witness


def _reads(term, pset: int, forbid=()) -> list[tuple[int, int]]:
    """The cells ``eval_term(term, pset, ...)`` reads.

    They are also the cells to write when the term's value must move: a
    right side rises to cover a level when every cell under its meets does,
    and a left side falls below a level when every cell under its joins
    does. ``forbid`` names the term class that makes such a write inexact.
    """
    if isinstance(term, TVar):
        return [(term.vid, pset)]
    if isinstance(term, TGround):
        return []
    if isinstance(term, forbid):
        raise TypeError(f"cannot solve through this side of a constraint: {term!r}")
    if isinstance(term, (TJoin, TMeet)):
        return _reads(term.lhs, pset, forbid) + _reads(term.rhs, pset, forbid)
    if isinstance(term, TMerge):
        branch = term.then if pset >> term.perm & 1 else term.els
        return _reads(branch, pset, forbid)
    if isinstance(term, TProj):
        return _reads(term.term, term.pset, forbid)
    raise TypeError(f"not a term: {term!r}")


def _fixpoint(constraints, requested, lattice: Lattice, nperms: int, up: bool):
    """Raise right sides from bottom (``up``) or lower left sides from top."""
    vids = set(requested)
    for c in constraints:
        vids |= term_vars(c.lhs) | term_vars(c.rhs)
    if not vids:
        return {}  # nothing to solve: every constraint is ground
    start, bound = (lattice.bottom, lattice.join) if up else (lattice.top, lattice.meet)
    tables = {v: [start] * (1 << nperms) for v in vids}

    items: list[tuple] = []  # (source term, source point, cells it writes)
    readers: dict[tuple[int, int], list[int]] = {}
    for c in constraints:
        lg, rg = c.lguard, c.rguard
        for q in point_classes(c, nperms):
            lp, rp = lg.remap(q), rg.remap(q)
            if up:
                src, sp, writes = c.lhs, lp, _reads(c.rhs, rp, TJoin)
            else:
                src, sp, writes = c.rhs, rp, _reads(c.lhs, lp, TMeet)
            if not writes:
                continue  # a ground side: left to the final check
            for cell in _reads(src, sp):
                readers.setdefault(cell, []).append(len(items))
            items.append((src, sp, writes))

    queue = deque(range(len(items)))
    queued = [True] * len(items)
    while queue:
        i = queue.popleft()
        queued[i] = False
        src, sp, writes = items[i]
        level = eval_term(src, sp, tables, lattice)
        for cell in writes:
            vid, p = cell
            row = tables[vid]
            new = bound(row[p], level)
            if new != row[p]:
                row[p] = new
                for j in readers.get(cell, ()):
                    if not queued[j]:
                        queued[j] = True
                        queue.append(j)
    return {v: BaseType(lattice, nperms, tuple(tbl)) for v, tbl in tables.items()}


def least_fixpoint(
    constraints, requested, lattice: Lattice, nperms: int
) -> dict[int, BaseType]:
    """Least types for ``requested`` and every variable of ``constraints``
    meeting every lower bound of ``constraints``.

    Upper bounds that stay violated at the fixpoint are left to the caller.
    """
    return _fixpoint(constraints, requested, lattice, nperms, True)


def greatest_fixpoint(
    constraints, requested, lattice: Lattice, nperms: int
) -> dict[int, BaseType]:
    """Greatest types for ``requested`` and every variable of
    ``constraints`` meeting every upper bound of ``constraints``.

    Lower bounds with no variable on the left are left to the caller.
    """
    return _fixpoint(constraints, requested, lattice, nperms, False)


def oracle_solve(
    constraints,
    lattice: Lattice,
    nperms: int,
    requested: tuple[int, ...] = (),
) -> dict[int, BaseType]:
    """Least solution by the worklist fixpoint, or OracleUnsat."""
    constraints = list(constraints)
    solution = least_fixpoint(constraints, requested, lattice, nperms)
    for c in constraints:
        q = constraint_witness(c, solution, lattice, nperms)
        if q is not None:
            raise OracleUnsat(c, q)
    return solution
