"""Permission-indexed security types.

A base type is a total map from permission sets to lattice levels, stored as
a dense table of 2^|P| level ids indexed by permission-set bitmask. All
operations are pointwise table loops; equality is extensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .lattice import Lattice

MAX_PERMISSIONS = 12


class PermTypeError(ValueError):
    pass


class UniverseMismatch(PermTypeError):
    pass


class UnknownPermission(PermTypeError):
    pass


@dataclass(frozen=True)
class PermUniverse:
    """The declared finite set of permissions; permission sets are bitmasks."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise PermTypeError("duplicate permission name")
        if len(self.names) > MAX_PERMISSIONS:
            raise PermTypeError(
                f"too many permissions ({len(self.names)} > {MAX_PERMISSIONS})"
            )

    @property
    def count(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownPermission(f"unknown permission {name!r}") from None

    def mask_of(self, perm_names: Iterable[str]) -> int:
        mask = 0
        for name in perm_names:
            mask |= 1 << self.index(name)
        return mask

    def set_names(self, mask: int) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.names) if mask >> i & 1)

    def sets(self) -> range:
        return range(1 << len(self.names))

    @cached_property
    def set_labels(self) -> tuple[str, ...]:
        """Every permission set's name, e.g. ``{p,q}``, indexed by mask."""
        return tuple("{" + ",".join(self.set_names(m)) + "}" for m in self.sets())

    def format_set(self, mask: int) -> str:
        return self.set_labels[mask]


@dataclass(frozen=True)
class BaseType:
    """Total map from permission-set masks to level ids of ``lattice``."""

    lattice: Lattice
    nperms: int
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != 1 << self.nperms:
            raise PermTypeError("base type table has the wrong size")

    def at(self, pset: int) -> int:
        return self.table[pset]

    def _check(self, other: "BaseType") -> None:
        if self.lattice is not other.lattice or self.nperms != other.nperms:
            raise UniverseMismatch("base types from different systems")

    def leq(self, other: "BaseType") -> bool:
        self._check(other)
        lat = self.lattice
        return all(lat.leq(a, b) for a, b in zip(self.table, other.table))

    def join(self, other: "BaseType") -> "BaseType":
        self._check(other)
        j = self.lattice.join
        return BaseType(
            self.lattice,
            self.nperms,
            tuple(j(a, b) for a, b in zip(self.table, other.table)),
        )

    def meet(self, other: "BaseType") -> "BaseType":
        self._check(other)
        m = self.lattice.meet
        return BaseType(
            self.lattice,
            self.nperms,
            tuple(m(a, b) for a, b in zip(self.table, other.table)),
        )

    def project(self, pset: int) -> "BaseType":
        """Constant base type holding this type's value at ``pset``."""
        return embed(self.table[pset], self.lattice, self.nperms)

    def _bit(self, perm: int) -> int:
        if not 0 <= perm < self.nperms:
            raise UnknownPermission(f"permission index {perm} out of range")
        return 1 << perm

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{pset:0{max(self.nperms, 1)}b}:{self.lattice.name(v)}"
            for pset, v in enumerate(self.table)
        )
        return f"BaseType({entries})"


def embed(level: int, lattice: Lattice, nperms: int) -> BaseType:
    """The constant base type mapping every permission set to ``level``."""
    return BaseType(lattice, nperms, (level,) * (1 << nperms))


def merge(perm: int, t1: BaseType, t2: BaseType) -> BaseType:
    """Behaves as t1 where ``perm`` is present and as t2 where it is absent."""
    t1._check(t2)
    bit = t1._bit(perm)
    return BaseType(
        t1.lattice,
        t1.nperms,
        tuple(
            t1.table[p] if p & bit else t2.table[p] for p in range(len(t1.table))
        ),
    )


@dataclass(frozen=True)
class FunctionType:
    params: tuple[BaseType, ...]
    ret: BaseType


def format_type(t: BaseType, universe: PermUniverse) -> str:
    """Render a base type in the annotation literal syntax.

    The most frequent level becomes the ``_`` default; remaining permission
    sets are listed explicitly in ascending bitmask order.
    """
    counts: dict[int, int] = {}
    for v in t.table:
        counts[v] = counts.get(v, 0) + 1
    default = max(counts, key=lambda v: (counts[v], -v))
    lat = t.lattice
    parts = [
        f"{universe.format_set(pset)}: {lat.name(v)}"
        for pset, v in enumerate(t.table)
        if v != default
    ]
    parts.append(f"_: {lat.name(default)}")
    return "{" + ", ".join(parts) + "}"


def format_function_type(ft: FunctionType, universe: PermUniverse) -> str:
    params = ", ".join(format_type(t, universe) for t in ft.params)
    return f"({params}) -> {format_type(ft.ret, universe)}"
