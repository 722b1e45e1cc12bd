"""Executable noninterference oracle.

For each caller permission set and observer level, checks every pair of
initial environments that agree on the parameters observable under the
projected typing environment: both runs must return the same value.
Exhaustive over a small value domain, so a clean verdict is a real
guarantee relative to the fuel bound.

An environment values the parameters only, the inputs a caller passes.
Every run starts the return variable at 0, as a call does, so it is never
part of an environment: a function of n parameters has d^n environments.

Pairs are not run one by one.  Environments that agree on the observable
part form a bucket, each environment in a bucket runs once, and the cell
fails when two finished runs in one bucket return different values: d^|obs|
buckets of d^|hidden| runs, for d the domain size.  Verdicts, witnesses and
counts are still stated over pairs, in the order (observable valuation,
hidden valuation 1, hidden valuation 2): ``pairs_tested`` counts the pairs
up to and including the witness (all d^|obs| * d^(2*|hidden|) of them when
there is none), the fuel note counts the pairs with an exhausted side, and
``pair_cap`` bounds the full pair count.

Cells share runs.  A run's outcome (its output, or running out of fuel)
does not depend on the observer, and depends on the caller's permission
set P only through ``P & T``, for T the permissions that the body's own
``test`` commands read: the interpreter reads the caller's permissions
only in ``test``, and a call runs its callee under its app's permissions.
So a function's cells are computed one permission class ``P & T`` at a
time, and the cells of a class share one store: the outcomes in
environment slot order, allocated by the class's first cell within the
pair cap.  Before a cell reads a bucket, it runs the bucket's environments
that the store lacks, so each (class, environment) runs at most once, and
a cell that stops at a witness leaves the later buckets unrun.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product

from .interp import DEFAULT_FUEL, ExecContext, Fuel, FuelExhausted, exec_cmd
from .syntax import Test, subcommands
from .system import CheckedSystem

DEFAULT_PAIR_CAP = 10**6


@dataclass
class Violation:
    env1: dict[str, int]
    env2: dict[str, int]
    out1: int
    out2: int


@dataclass
class CellVerdict:
    function: str
    perms: int
    observer: int
    pairs_tested: int
    verdict: str  # "ok" | "violation" | "inconclusive" | "skipped"
    witness: Violation | None = None
    note: str = ""


@dataclass
class NIReport:
    cells: list[CellVerdict] = field(default_factory=list)

    @property
    def violations(self) -> list[CellVerdict]:
        return [c for c in self.cells if c.verdict == "violation"]

    @property
    def ok(self) -> bool:
        return not self.violations


def _observable_split(gamma, perms, observer):
    obs, hidden = [], []
    for name, t in gamma.items():
        if t.lattice.leq(t.at(perms), observer):
            obs.append(name)
        else:
            hidden.append(name)
    return obs, hidden


def _function_cells(csys, qname, observers, domain, fuel, pair_cap, strict):
    """The cells of ``qname``, observer-major, then permission set ascending."""
    decl = csys.fd[qname]
    ft = decl.annotation
    if ft is None:
        raise ValueError(f"{qname} has no declared or inferred type")
    gamma = dict(zip(decl.params, ft.params))

    tested = 0  # the permissions that the body's own tests read
    for c in subcommands(decl.body):
        if isinstance(c, Test):
            tested |= 1 << csys.universe.index(c.perm)
    classes = {}  # permission class -> its permission sets
    for perms in csys.universe.sets():
        classes.setdefault(perms & tested, []).append(perms)
    cells = {}
    for members in classes.values():
        store = []  # the class's run outcomes, in environment slot order
        for observer in observers:
            for perms in members:
                if strict or csys.lattice.leq(ft.ret.at(perms), observer):
                    cell = _test_cell(csys, qname, decl, gamma, perms, observer,
                                      domain, fuel, pair_cap, store)
                else:
                    cell = CellVerdict(qname, perms, observer, 0, "skipped",
                                       note="return type not observable")
                cells[observer, perms] = cell
    return [cells[o, perms] for o in observers for perms in csys.universe.sets()]


_EXHAUSTED = object()  # the outcome of a run that ran out of fuel


def _slots(names, place, d):
    """The store slot offset of each valuation of ``names``, in ``product`` order."""
    slots = [0]
    for name in names:
        slots = [s + v * place[name] for s in slots for v in range(d)]
    return slots


def _test_cell(csys, qname, decl, gamma, perms, observer, domain, fuel, pair_cap,
               store) -> CellVerdict:
    obs, hidden = _observable_split(gamma, perms, observer)
    d = len(domain)
    pair_count = d ** len(obs) * d ** (2 * len(hidden))
    if pair_count > pair_cap:
        return CellVerdict(
            qname, perms, observer, 0, "inconclusive",
            note=f"{pair_count} pairs exceed the cap of {pair_cap}",
        )

    if not store:  # the class's first cell within the cap
        store += [None] * d ** len(gamma)

    # A slot is an environment's mixed-radix index over the domain positions
    # in parameter order; ``slots`` lists the cell's in bucket order, so each
    # bucket is a row of m.  The row's runs missing from the store run first,
    # each as a call: return variable at 0, full fuel.  A bucket's pairs, in
    # (hid1, hid2) order and skipping any with an exhausted side, first differ
    # at (i, j): i the first finished run, j the first finished one unlike i.
    m = d ** len(hidden)
    names = (*obs, *hidden)
    slots = _slots(names, {name: d ** i for i, name in enumerate(reversed(gamma))}, d)
    outs = [store[s] for s in slots]
    hids = list(product(domain, repeat=len(hidden)))
    ret_var, body = decl.ret_var, decl.body
    ctx = ExecContext(decl.app, perms, Fuel(fuel))
    inconclusive = 0
    for r, low in zip(range(0, len(slots), m), product(domain, repeat=len(obs))):
        row = outs[r:r + m]
        if None in row:
            for k, hid in enumerate(hids):
                if row[k] is None:
                    env = dict(zip(names, low + hid))
                    env[ret_var] = 0
                    ctx.fuel.remaining = fuel
                    try:
                        if body is not None:
                            exec_cmd(env, ctx, body, csys)
                        out = env[ret_var]
                    except FuelExhausted:
                        out = _EXHAUSTED
                    row[k] = store[slots[r + k]] = out
        i = 0
        while row[i] is _EXHAUSTED and i < m - 1:
            i += 1
        exhausted = row.count(_EXHAUSTED)
        if row.count(row[i]) + exhausted < m:  # a finished run differs from i's
            j = next(k for k, out in enumerate(row)
                     if out is not _EXHAUSTED and out != row[i])
            env1, env2 = (dict(zip(names, low + hids[k])) for k in (i, j))
            return CellVerdict(
                qname, perms, observer, (r + i) * m + j + 1, "violation",
                witness=Violation(env1, env2, row[i], row[j]),
            )
        inconclusive += m * m - (m - exhausted) ** 2
    if inconclusive:
        return CellVerdict(
            qname, perms, observer, len(slots) * m, "inconclusive",
            note=f"{inconclusive} pair(s) ran out of fuel",
        )
    return CellVerdict(qname, perms, observer, len(slots) * m, "ok")


def nitest_system(
    csys: CheckedSystem,
    observers: tuple[int, ...] | None = None,
    domain: Sequence[int] = (0, 1, 2),
    fuel: int = DEFAULT_FUEL,
    pair_cap: int = DEFAULT_PAIR_CAP,
    strict: bool = False,
) -> NIReport:
    """Test every function over a grid of observers and caller permissions;
    ``strict`` also tests the cells whose return type is unobservable."""
    try:
        d = len(domain)
    except OverflowError:  # a range longer than sys.maxsize
        raise ValueError("domain range too large") from None
    if d < 2:
        raise ValueError("domain must offer at least two values")
    # a range's values are distinct, and it may be too long to copy
    if not isinstance(domain, range) and len(set(domain)) < d:
        raise ValueError("domain values must be distinct")
    # a run takes a value as it is, while a call wraps it to 64 bits, so a
    # wider value would report witnesses that no call replays
    ends = (domain[0], domain[-1]) if isinstance(domain, range) else domain
    if not all(-(1 << 63) <= v < 1 << 63 for v in ends):
        raise ValueError("domain values must be 64-bit integers")
    if observers is None:
        observers = tuple(range(len(csys.lattice)))
    cells = []
    for qname in csys.fd:
        cells += _function_cells(csys, qname, observers, domain, fuel, pair_cap, strict)
    return NIReport(cells)
