"""The least-solution verdict as an exception: a solution or ``OracleUnsat``.

``oracle_solve`` is ``solver.least_solution`` that raises on the first
refuted constraint instead of returning it; ``perfbench/run.py`` checks its
answers with it. The symbolic pipeline in ``solver`` is the independent
reference that the differential suite checks the worklist fixpoint against.
"""

from __future__ import annotations

from .basetypes import BaseType
from .lattice import Lattice
from .solver import least_solution


class OracleUnsat(Exception):
    def __init__(self, constraint, witness: int):
        super().__init__(
            f"constraint refuted at permission set {witness}: {constraint!r}"
        )
        self.constraint = constraint
        self.witness = witness


def oracle_solve(
    constraints,
    lattice: Lattice,
    nperms: int,
    requested: tuple[int, ...] = (),
) -> dict[int, BaseType]:
    """Least solution by the worklist fixpoint, or OracleUnsat."""
    solution, refuted = least_solution(list(constraints), requested, lattice, nperms)
    if refuted is not None:
        raise OracleUnsat(*refuted)
    return solution
