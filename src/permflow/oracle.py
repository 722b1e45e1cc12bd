"""Independent semantic constraint solver used as a differential oracle.

Treats every (variable, permission set) pair as an unknown lattice element
and runs Kleene iteration from bottom: each constraint is evaluated
pointwise through the semantic trace map P -> (P | pos) & ~neg, and the
right-hand side is raised just enough to cover the left. All term forms
are monotone in the unknowns, so the iteration reaches the least solution;
a ground upper bound violated at the fixpoint refutes the set.

It shares only the term evaluator, and the constraint check built on it,
with the symbolic pipeline. The checker solves the letvar locals of an
annotated body with ``least_fixpoint`` before it evaluates the body's
constraints.
"""

from __future__ import annotations

from .basetypes import BaseType
from .constraints import (
    GenConstraint,
    TGround,
    TMeet,
    TMerge,
    TProj,
    TVar,
    constraint_witness,
    eval_term,
    generalize,
    term_vars,
)
from .lattice import Lattice

ORACLE_MAX_PERMISSIONS = 4


class UniverseTooLarge(ValueError):
    pass


class OracleUnsat(Exception):
    def __init__(self, constraint: GenConstraint, witness: int):
        super().__init__(
            f"constraint refuted at permission set {witness}: {constraint!r}"
        )
        self.constraint = constraint
        self.witness = witness


def _raise_to(term, pset: int, level: int, tables, lattice) -> bool:
    """Raise variables under ``term`` so its value at ``pset`` covers ``level``."""
    if isinstance(term, TGround):
        return False  # a cap; violations are reported once the fixpoint is reached
    if isinstance(term, TVar):
        old = tables[term.vid][pset]
        new = lattice.join(old, level)
        if new != old:
            tables[term.vid][pset] = new
            return True
        return False
    if isinstance(term, TMeet):
        a = _raise_to(term.lhs, pset, level, tables, lattice)
        b = _raise_to(term.rhs, pset, level, tables, lattice)
        return a or b
    if isinstance(term, TMerge):
        branch = term.then if pset >> term.perm & 1 else term.els
        return _raise_to(branch, pset, level, tables, lattice)
    if isinstance(term, TProj):
        return _raise_to(term.term, term.pset, level, tables, lattice)
    raise TypeError(f"join cannot appear on the right of a constraint: {term!r}")


def least_fixpoint(
    gens: list[GenConstraint], vids, lattice: Lattice, nperms: int
) -> dict[int, BaseType]:
    """Least types for ``vids`` meeting every lower bound of ``gens``.

    Upper bounds that stay violated at the fixpoint are left to the caller.
    """
    size = 1 << nperms
    tables = {v: [lattice.bottom] * size for v in vids}
    changed = True
    while changed:
        changed = False
        for gc in gens:
            for q in range(size):
                vl = eval_term(gc.lhs, gc.lguard.remap(q), tables, lattice)
                rp = gc.rguard.remap(q)
                if not lattice.leq(vl, eval_term(gc.rhs, rp, tables, lattice)):
                    if _raise_to(gc.rhs, rp, vl, tables, lattice):
                        changed = True
    return {v: BaseType(lattice, nperms, tuple(tbl)) for v, tbl in tables.items()}


def oracle_solve(
    constraints,
    lattice: Lattice,
    nperms: int,
    requested: tuple[int, ...] = (),
) -> dict[int, BaseType]:
    """Least solution by pointwise fixpoint iteration, or OracleUnsat."""
    if nperms > ORACLE_MAX_PERMISSIONS:
        raise UniverseTooLarge(
            f"oracle supports at most {ORACLE_MAX_PERMISSIONS} permissions"
        )
    gens = generalize(constraints)
    vids: set[int] = set(requested)
    for gc in gens:
        vids |= term_vars(gc.lhs) | term_vars(gc.rhs)
    solution = least_fixpoint(gens, vids, lattice, nperms)
    for gc in gens:
        q = constraint_witness(gc, solution, lattice, nperms)
        if q is not None:
            raise OracleUnsat(gc, q)
    return solution
