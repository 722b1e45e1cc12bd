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
``NIReport.runs`` counts those (class, environment) runs.

A cell reads and fills the store through its slot index: the store slot
of each valuation of its parameters, observable then hidden, in bucket
order, a tuple.  An index of at most ``_CACHED`` (4,096) slots is built
once per parameter order and kept; a larger one lives for its cell only.
A cell keeps no copy of the store: it reads one window of runs at a time,
counts what the store lacks with one ``count(None)``, and writes a
window's grid back with one ``map`` over the window's slots.  A cell whose
buckets hold one environment each reads every slot, so it counts its
exhausted runs over the whole store at once.

The runs go in batches.  Runs go by windows of environments that differ
only in their last parameters: a bucket, or, when buckets hold one
environment each and so no witness, as many as ``_BATCH`` (4,096) allows
unless the domain alone is larger.  A window that the store lacks runs as
one grid (``interp.Column``): each varying parameter is a column of the
domain along an axis of its own, so an operator costs d^k for the k
parameters it depends on.  A class's cells run fewest hidden parameters
first, so the top observer's cell fills the store in whole windows.  A
window held in part runs its missing environments as one flat batch.  A
grid that diverges (``interp.Diverged``) splits into one part per
valuation of the parameters that the condition reads, unless there would
be more parts than a part holds environments; then it splits in two by
the condition's values, as a flat batch that diverges does.  A part that
diverges again runs one environment at a time.  So an environment costs
at most two batched runs and one single run, where splitting without end
would make a loop that splits off one environment per iteration cubic in
the batch size.  A batch that runs out of fuel does so for each of its
environments.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .interp import (
    DEFAULT_FUEL,
    Column,
    Diverged,
    ExecContext,
    Fuel,
    FuelExhausted,
    exec_cmd,
    spread,
)
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
    runs: int = 0  # the (permission class, environment) runs made

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
    """The cells of ``qname``, observer-major, then permission set ascending,
    and the number of runs they made."""
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
    runs = 0
    for members in classes.values():
        store = []  # the class's run outcomes, in environment slot order
        # the fewest hidden parameters first: the widest windows fill the store
        order = sorted(((o, p) for o in observers for p in members),
                       key=lambda op: len(_observable_split(gamma, op[1], op[0])[1]))
        for observer, perms in order:
            if strict or csys.lattice.leq(ft.ret.at(perms), observer):
                cell, ran = _test_cell(csys, qname, decl, gamma, perms, observer,
                                       domain, fuel, pair_cap, store)
                runs += ran
            else:
                cell = CellVerdict(qname, perms, observer, 0, "skipped",
                                   note="return type not observable")
            cells[observer, perms] = cell
    return [cells[o, perms] for o in observers for perms in csys.universe.sets()], runs


_EXHAUSTED = object()  # the outcome of a run that ran out of fuel
_BATCH = 4096  # the widest window of one-environment buckets, unless d is wider
_consume = deque(maxlen=0).extend  # runs an iterator to its end, keeping nothing
_CACHED = 4096  # the most slots of a slot index kept between cells


def _slots(order, d):
    """The slot index of a parameter order, given as the parameters'
    positions: the store slot of each valuation of the parameters in that
    order, in ``product`` order, a tuple.  A slot is an environment's
    mixed-radix index over its domain positions in declaration order."""
    n = len(order)
    slots = [0]
    for i in order:
        place = d ** (n - 1 - i)
        offsets = range(0, d * place, place)
        slots = [s + o for s in slots for o in offsets]
    return tuple(slots)


_cached_slots = lru_cache(maxsize=16)(_slots)  # at most 16 * _CACHED slots


def _valuation(names, domain, q):
    """The q-th valuation of ``names`` over ``domain``, in ``product`` order."""
    d = len(domain)
    values = []
    for _ in names:
        q, digit = divmod(q, d)
        values.append(domain[digit])
    return dict(zip(names, reversed(values)))


@lru_cache(maxsize=16)
def _columns(n, domain):
    """For each of n names, its value in each valuation of the n names over
    ``domain``, a tuple, in ``product`` order."""
    d = len(domain)
    return [[v for v in domain for _ in range(d ** i)] * d ** (n - 1 - i)
            for i in reversed(range(n))]


def _outcome(csys, decl, ctx, fuel, env):
    """Run ``decl``'s body on ``env`` as a call does, return variable 0 and
    full fuel: its result, or ``_EXHAUSTED``."""
    env[decl.ret_var] = 0
    ctx.fuel.remaining = fuel
    try:
        if decl.body is not None:
            exec_cmd(env, ctx, decl.body, csys)
    except FuelExhausted:  # a batch follows one path, so it runs out as one
        return _EXHAUSTED
    return env[decl.ret_var]


def _halves(part, cond):
    """``part``'s ``else`` and ``then`` environments under the condition
    ``cond``, laid out as ``part``: parts that do not split again."""
    return [([k for k, t in zip(part, cond) if not t], False),
            ([k for k, t in zip(part, cond) if t], False)]


def _grid(csys, decl, ctx, fuel, shared, names, inputs, domain):
    """The outcome of running each valuation of ``names`` over ``domain``,
    in ``product`` order, with ``shared`` as given, as a call: its result,
    or ``_EXHAUSTED``.  They run as one grid, ``names[i]`` the column
    ``inputs[i]`` of the domain along axis i.  A grid that diverges splits
    into one part per valuation of the parameters that the condition
    reads, unless there would be more parts than a part holds, and then in
    two by the condition's values.  A part that diverges again runs one
    environment at a time."""
    axes = tuple(col.axes[0] for col in inputs)
    env = dict(shared)
    env.update(zip(names, inputs))
    try:
        return spread(_outcome(csys, decl, ctx, fuel, env), axes)
    except Diverged as err:
        cond = err.cond
    mask = spread(cond, axes)
    numbers = range(len(mask))
    if len(cond) ** 2 > len(numbers):
        todo = _halves(numbers, mask)
    else:  # by the condition's cell: the parameters it reads run as ints
        parts = [[] for _ in cond]
        for k, cell in zip(numbers, spread(Column(range(len(cond)), cond.axes), axes)):
            parts[cell].append(k)
        todo = [(part, False) for part in parts]
    cols = _columns(len(names), tuple(domain))
    outs = _run(csys, decl, ctx, fuel, shared, names, cols, todo)
    return [outs[k] for k in numbers]


def _run(csys, decl, ctx, fuel, shared, names, cols, todo):
    """The outcome of running each environment that the parts in ``todo``
    number as a call, by number: its result, or ``_EXHAUSTED``.
    Environment k values ``shared`` as given and ``names[i]`` as
    ``cols[i][k]``.  Each part runs as one flat batch, a parameter an int
    when its environments agree on it and a column otherwise.  A part that
    diverges splits in two when ``todo`` lets it, and otherwise runs its
    environments one at a time."""
    outs = {}
    singles = []
    while todo:
        part, splits = todo.pop()
        env = dict(shared)
        for name, col in zip(names, cols):
            vals = [col[k] for k in part]
            env[name] = vals[0] if vals.count(vals[0]) == len(vals) else Column(vals)
        try:
            out = _outcome(csys, decl, ctx, fuel, env)
        except Diverged as err:
            if splits:
                todo += _halves(part, err.cond)
            else:
                singles += part
            continue
        if isinstance(out, Column):
            outs.update(zip(part, out))
        else:
            for k in part:
                outs[k] = out
    for k in singles:  # runs of ints
        env = dict(shared)
        env.update(zip(names, map(itemgetter(k), cols)))
        outs[k] = _outcome(csys, decl, ctx, fuel, env)
    return outs


def _test_cell(csys, qname, decl, gamma, perms, observer, domain, fuel, pair_cap,
               store) -> tuple[CellVerdict, int]:
    """The cell, and the number of environments it ran that ``store`` lacked."""
    obs, hidden = _observable_split(gamma, perms, observer)
    d = len(domain)
    pair_count = d ** len(obs) * d ** (2 * len(hidden))
    if pair_count > pair_cap:
        return CellVerdict(
            qname, perms, observer, 0, "inconclusive",
            note=f"{pair_count} pairs exceed the cap of {pair_cap}",
        ), 0

    if not store:  # the class's first cell within the cap
        store += [None] * d ** len(gamma)

    # The cell's slot index lists its store slots in bucket order: the q-th
    # valuation of ``names`` is slot ``slots[q]``, so each bucket is a run
    # of m.  A bucket's pairs, in (hid1, hid2) order and skipping any with
    # an exhausted side, first differ at (i, j): i the first finished run,
    # j the first finished one unlike i.
    #
    # Runs go by windows of w valuations that share all but their last t
    # names: a bucket, or when buckets hold one environment each (m is 1,
    # so no bucket holds a witness), as many valuations as ``_BATCH``
    # allows.  A window whose runs the store lacks runs as one grid, and one
    # that it holds in part runs the missing ones as one flat batch.
    m = d ** len(hidden)
    names = (*obs, *hidden)
    order = tuple(map(list(gamma).index, names))  # the names' positions
    n, t = len(names), len(hidden)
    slots = (_cached_slots if d ** n <= _CACHED else _slots)(order, d)
    if m == 1:
        while t < n and d ** (t + 1) <= max(_BATCH, d):
            t += 1
    w = d ** t
    lead, trail = names[:n - t], names[n - t:]
    axes = tuple((i, d) for i in range(t))  # the trailing names' axes
    inputs = [Column(domain, (axis,)) for axis in axes]
    ctx = ExecContext(decl.app, perms, Fuel(fuel))

    ran = 0

    def fill(r):
        """The outcomes of the window at r, in order, run where the store
        lacks them."""
        nonlocal ran
        window = slots[r:r + w]
        outs = list(map(store.__getitem__, window))
        missing = outs.count(None)
        if missing:
            ran += missing
            shared = _valuation(lead, domain, r // w)
            if missing == w:
                outs = _grid(csys, decl, ctx, fuel, shared, trail, inputs, domain)
                _consume(map(store.__setitem__, window, outs))
            else:
                cols = _columns(t, tuple(domain))
                todo = [([k for k, out in enumerate(outs) if out is None], True)]
                for k, out in _run(csys, decl, ctx, fuel, shared, trail, cols,
                                   todo).items():
                    outs[k] = store[window[k]] = out
        return outs

    if m == 1:
        # The row loop's decision without its rows: no bucket of one holds a
        # witness, and each exhausted run leaves its bucket's one pair
        # undecided.  The cell's slots are the whole store.
        for r in range(0, len(slots), w):
            fill(r)
        inconclusive = store.count(_EXHAUSTED)
    else:
        inconclusive = 0
        for r in range(0, len(slots), m):
            row = fill(r)  # the bucket's runs, before it is read
            i = 0
            while row[i] is _EXHAUSTED and i < m - 1:
                i += 1
            exhausted = row.count(_EXHAUSTED)
            if row.count(row[i]) + exhausted < m:  # a finished run differs from i's
                j = next(k for k, out in enumerate(row)
                         if out is not _EXHAUSTED and out != row[i])
                env1, env2 = (_valuation(names, domain, r + k) for k in (i, j))
                return CellVerdict(
                    qname, perms, observer, (r + i) * m + j + 1, "violation",
                    witness=Violation(env1, env2, row[i], row[j]),
                ), ran
            inconclusive += m * m - (m - exhausted) ** 2
    if inconclusive:
        return CellVerdict(
            qname, perms, observer, len(slots) * m, "inconclusive",
            note=f"{inconclusive} pair(s) ran out of fuel",
        ), ran
    return CellVerdict(qname, perms, observer, len(slots) * m, "ok"), ran


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
    report = NIReport()
    for qname in csys.fd:
        cells, runs = _function_cells(csys, qname, observers, domain, fuel, pair_cap,
                                      strict)
        report.cells += cells
        report.runs += runs
    return report
