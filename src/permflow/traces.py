"""Permission traces.

A trace records the signed permissions accumulated from enclosing permission
tests: positively checked permissions in ``pos``, negatively checked ones in
``neg``. Order and repetition are irrelevant for consistent traces, so the
two bitmasks are a canonical form; a trace re-indexes a permission set
through P -> (P | pos) & ~neg.
"""

from __future__ import annotations

from dataclasses import dataclass


class InconsistentTrace(ValueError):
    pass


@dataclass(frozen=True)
class Trace:
    pos: int = 0
    neg: int = 0

    def __post_init__(self):
        if self.pos & self.neg:
            raise InconsistentTrace(
                f"permission occurs with both signs (pos={self.pos:b}, neg={self.neg:b})"
            )

    @property
    def support(self) -> int:
        return self.pos | self.neg

    def remap(self, pset: int) -> int:
        return (pset | self.pos) & ~self.neg

    def append(self, perm: int, positive: bool) -> "Trace":
        """Append one signed permission; an earlier sign on it wins."""
        bit = 1 << perm
        if bit & self.support:
            return self
        if positive:
            return Trace(self.pos | bit, self.neg)
        return Trace(self.pos, self.neg | bit)

    def extend(self, other: "Trace") -> "Trace":
        """Apply ``other`` after this trace; this trace's literals win."""
        keep = ~self.support
        return Trace(self.pos | (other.pos & keep), self.neg | (other.neg & keep))

    def diff(self, other: "Trace") -> "Trace":
        """Literals of this trace on permissions absent from ``other``."""
        drop = other.support
        return Trace(self.pos & ~drop, self.neg & ~drop)

    def compatible(self, other: "Trace") -> bool:
        return not (self.pos & other.neg or self.neg & other.pos)

    def format(self, names: tuple[str, ...]) -> str:
        parts = []
        for i, name in enumerate(names):
            if self.pos >> i & 1:
                parts.append(f"+{name}")
            elif self.neg >> i & 1:
                parts.append(f"-{name}")
        return "".join(parts) if parts else "~"

    def __repr__(self):
        return f"Trace(+{self.pos:b},-{self.neg:b})"


EPSILON = Trace(0, 0)


def trace_of_set(pset: int, nperms: int) -> Trace:
    """The full sign assignment that only ``pset`` entails."""
    full = (1 << nperms) - 1
    return Trace(pset, full & ~pset)


def minterms(support: int) -> list[Trace]:
    """All full sign assignments over the permissions in ``support``."""
    bits = [i for i in range(support.bit_length()) if support >> i & 1]
    out = []
    for choice in range(1 << len(bits)):
        pos = 0
        for j, i in enumerate(bits):
            if choice >> j & 1:
                pos |= 1 << i
        out.append(Trace(pos, support & ~pos))
    return out
