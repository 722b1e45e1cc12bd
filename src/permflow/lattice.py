"""Finite security lattices with precomputed join/meet tables.

Levels are small integer indices into the lattice's name table; every query
is a table lookup, so a loaded lattice answers leq/join/meet in O(1).
"""

from __future__ import annotations

from typing import Sequence

MAX_LEVELS = 64


class LatticeError(ValueError):
    """The supplied level structure cannot be used as a security lattice."""


class UnknownLevelName(LatticeError):
    pass


class CycleInOrder(LatticeError):
    pass


class NotALattice(LatticeError):
    pass


class Lattice:
    """Immutable finite lattice over named levels.

    Instances are freely shareable and compare structurally, by level names
    and order, so a system parsed twice from the same source holds equal
    lattices (and so equal types). Construct them through
    :func:`load_lattice`, which validates the order and completes the
    join/meet tables.
    """

    __slots__ = ("names", "n", "bottom", "top", "_index", "_leq", "_join", "_meet")

    def __init__(self, names, leq_rows, join_rows, meet_rows, bottom, top):
        self.names: tuple[str, ...] = tuple(names)
        self.n = len(self.names)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._leq = leq_rows
        self._join = join_rows
        self._meet = meet_rows
        self.bottom = bottom
        self.top = top

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Lattice({', '.join(self.names)})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Lattice)
            and self.names == other.names
            and self._leq == other._leq
        )

    def __hash__(self) -> int:
        return hash((self.names, self._leq))

    def level(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownLevelName(f"unknown level name {name!r}") from None

    def name(self, level: int) -> str:
        return self.names[level]

    def leq(self, a: int, b: int) -> bool:
        return self._leq[a][b]

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]

    def meet(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (a, b) with a < b and nothing strictly between."""
        out = []
        for a in range(self.n):
            for b in range(self.n):
                if a == b or not self._leq[a][b]:
                    continue
                if any(
                    c != a and c != b and self._leq[a][c] and self._leq[c][b]
                    for c in range(self.n)
                ):
                    continue
                out.append((a, b))
        return out


def load_lattice(names: Sequence[str], order: Sequence[tuple[str, str]]) -> Lattice:
    """Build a lattice from level names and covering/ordering pairs a < b.

    Completes the reflexive-transitive order, rejects cycles, and requires a
    unique lub and glb for every pair (which also forces a bottom and a top).
    """
    names = list(names)
    if not names:
        raise NotALattice("a lattice needs at least one level")
    if len(names) > MAX_LEVELS:
        raise NotALattice(f"too many levels ({len(names)} > {MAX_LEVELS})")
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise NotALattice(f"duplicate level name {dup!r}")
    index = {name: i for i, name in enumerate(names)}
    n = len(names)

    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        leq[i][i] = True
    for lo, hi in order:
        if lo not in index:
            raise UnknownLevelName(f"unknown level name {lo!r} in order")
        if hi not in index:
            raise UnknownLevelName(f"unknown level name {hi!r} in order")
        leq[index[lo]][index[hi]] = True

    # Warshall closure.
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_k = leq[k]
                row_i = leq[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True

    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise CycleInOrder(
                    f"levels {names[a]} and {names[b]} order each other"
                )

    join_rows = [[0] * n for _ in range(n)]
    meet_rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ups = [c for c in range(n) if leq[a][c] and leq[b][c]]
            lub = [c for c in ups if all(leq[c][d] for d in ups)]
            if len(lub) != 1:
                raise NotALattice(
                    f"levels {names[a]} and {names[b]} have no unique join"
                )
            join_rows[a][b] = lub[0]
            downs = [c for c in range(n) if leq[c][a] and leq[c][b]]
            glb = [c for c in downs if all(leq[d][c] for d in downs)]
            if len(glb) != 1:
                raise NotALattice(
                    f"levels {names[a]} and {names[b]} have no unique meet"
                )
            meet_rows[a][b] = glb[0]

    bottom = 0
    top = 0
    for c in range(n):
        bottom = meet_rows[bottom][c]
        top = join_rows[top][c]

    leq_rows = tuple(tuple(row) for row in leq)
    return Lattice(
        names,
        leq_rows,
        tuple(tuple(row) for row in join_rows),
        tuple(tuple(row) for row in meet_rows),
        bottom,
        top,
    )
