"""Constraint solving: the worklist solver, and the symbolic reference.

``refutation`` is the one verdict on a guarded constraint set. Only the
constraints with a ground part on the right, the *roots*, can be left false
by the least solution, and a constraint the least solution violates is
violated by every solution, so the first refuted root, in generation order,
refutes the set. The least solution on the cells the roots read depends only
on the roots' *cone*: the roots and, transitively, every constraint whose
right side writes a variable that a member's left side or a root's right
side reads. So the verdict runs the worklist fixpoint below over the cone
alone; a set without roots has an empty cone and is satisfiable. Inference
(``solve``), the unsat-core search and ``inference.check_system`` call it.
``solve`` returns the least substitution, solving the constraints outside
the cone from the cone's tables up, and reports an unsatisfiable set with
the refuted constraint, its witness and an irreducible core: the one that
deleting constraints one at a time in generation order would keep. The
constraints outside the cone never change a verdict, so that core is
searched inside the cone, by galloping search from the last kept member.

The fixpoint treats every (variable, permission set) pair as one unknown
lattice element, a *cell*. A generated constraint (Λ, lhs ≤ rhs) holds when
lhs lies below rhs at every permission set that Λ entails; each such set is
one *instance* of it, and the least one where lhs ≰ rhs is its *witness*
(``constraint_witness``). The least solution starts every cell at bottom
and raises the cells under an instance's right side just enough to cover
its left side. An index maps each cell to the instances whose left side
reads it, and only the readers of a raised cell go back on the worklist, so
an instance is re-examined at most once per raise of a cell it reads. This
is the textbook least-solution algorithm for atomic inequalities over a
finite lattice (Rehof & Mogensen, "Tractable constraints in finite
semilattices", SCP 1999). Ground parts of a right side are never raised: a
constraint they leave violated at the least fixpoint is violated by every
solution.

``symbolic_solve`` is the paper's symbolic pipeline, kept as the
independent reference the differential suite checks ``solve``'s least
substitution against at small permission counts; it returns only that
substitution, and it is exponential in the permission count. It works on
generalized constraints (each side guarded by its own trace) and reduces
everything to atoms relating a variable or ground type to a variable or
ground type. Saturation closes the atom set under transitivity
through shared variables; because a guard's remap collapses permission-set
fibers, the transitive consequence of a lower and an upper bound is a
family of constraints, one per sign assignment of each side's collapsed
permissions. Self-guarded variables are regrouped into fresh piece
variables, one per sign assignment over the support of their guards.

Merging and unification run as one sweep in decreasing variable order: a
variable's least type is the pointwise join of its (by then ground) lower
bounds pushed through the guards, its upper bounds are checked against it,
and the result substitutes into the remaining variables' bounds.
"""
from __future__ import annotations

from collections import deque

from .basetypes import BaseType, embed
from .constraints import (
    GenConstraint,
    TGround,
    TJoin,
    TMeet,
    TMerge,
    TProj,
    TVar,
    Term,
    constraint_witness,
    entailed_sets,
    eval_term,
    generalize,
    term_vars,
)
from .lattice import Lattice
from .traces import minterms, trace_of_set

class UnsatError(Exception):
    """``constraint`` is refuted at permission set ``witness``."""

    def __init__(self, constraint, witness: int, core: list | None = None):
        super().__init__("unsatisfiable constraint set")
        self.constraint = constraint
        self.witness = witness
        self.core = core or []


class _Ctx:
    def __init__(self, first_free_vid: int):
        self.next_vid = first_free_vid
        # split parent -> (support mask, {sigma pos mask -> piece vid})
        self.pieces: dict[int, tuple[int, dict[int, int]]] = {}

    def fresh_piece(self) -> int:
        vid = self.next_vid
        self.next_vid += 1
        return vid


# ---------------------------------------------------------------- decompose

def decompose(
    gens: list[GenConstraint], lattice: Lattice, nperms: int
) -> list[GenConstraint]:
    """Reduce constraints to atoms (variable/ground vs variable/ground)."""
    out: list[GenConstraint] = []
    seen: set[GenConstraint] = set()
    work = list(gens)
    while work:
        gc = work.pop()
        lhs, rhs = gc.lhs, gc.rhs

        if isinstance(rhs, TMeet):
            work.append(GenConstraint(gc.lguard, lhs, gc.rguard, rhs.lhs))
            work.append(GenConstraint(gc.lguard, lhs, gc.rguard, rhs.rhs))
            continue
        if isinstance(rhs, TMerge):
            bit = 1 << rhs.perm
            if gc.rguard.pos & bit:
                work.append(GenConstraint(gc.lguard, lhs, gc.rguard, rhs.then))
            elif gc.rguard.neg & bit:
                work.append(GenConstraint(gc.lguard, lhs, gc.rguard, rhs.els))
            else:
                work.append(GenConstraint(
                    gc.lguard.append(rhs.perm, True), lhs,
                    gc.rguard.append(rhs.perm, True), rhs.then))
                work.append(GenConstraint(
                    gc.lguard.append(rhs.perm, False), lhs,
                    gc.rguard.append(rhs.perm, False), rhs.els))
            continue
        if isinstance(rhs, TProj):
            work.append(GenConstraint(
                gc.lguard, lhs, trace_of_set(rhs.pset, nperms), rhs.term))
            continue
        if isinstance(lhs, TJoin):
            work.append(GenConstraint(gc.lguard, lhs.lhs, gc.rguard, rhs))
            work.append(GenConstraint(gc.lguard, lhs.rhs, gc.rguard, rhs))
            continue
        if isinstance(lhs, TProj):
            work.append(GenConstraint(
                trace_of_set(lhs.pset, nperms), lhs.term, gc.rguard, rhs))
            continue
        if isinstance(lhs, (TMeet, TMerge)) or isinstance(rhs, TJoin):
            raise ValueError(f"term violates the constraint grammar: {gc!r}")

        for atom in _atomic(gc, lattice, nperms):
            if atom not in seen:
                seen.add(atom)
                out.append(atom)
    return out


def _atomic(gc: GenConstraint, lattice: Lattice, nperms: int) -> list[GenConstraint]:
    """Discharge or keep an atom-shaped constraint; refute ground-ground."""
    lhs, rhs = gc.lhs, gc.rhs
    if isinstance(lhs, TGround) and isinstance(rhs, TGround):
        for q in range(1 << nperms):
            a = lhs.type.at(gc.lguard.remap(q))
            b = rhs.type.at(gc.rguard.remap(q))
            if not lattice.leq(a, b):
                raise UnsatError(gc, q)
        return []
    if (
        isinstance(lhs, TVar)
        and isinstance(rhs, TVar)
        and lhs.vid == rhs.vid
        and gc.lguard == gc.rguard
    ):
        return []
    return [gc]


# ----------------------------------------------------------------- saturate

def _derive(low: GenConstraint, up: GenConstraint, lattice, nperms) -> list[GenConstraint]:
    """Transitive consequences of a lower and an upper bound of one variable.

    low = (Λ1, T1 ≤ Λr, v) and up = (Λl, v ≤ Λ2, T2) relate T1 and T2
    through every pair of points the two remaps send to a common v-point,
    so each side's guard is completed by the other guard's surplus literals
    and then by every sign assignment over its own collapsed permissions.
    """
    lr, ll = low.rguard, up.lguard
    if not lr.compatible(ll):
        return []
    dlow = ll.diff(lr)
    dup = lr.diff(ll)
    base_l = low.lguard.extend(dlow)
    base_r = up.rguard.extend(dup)
    out = []
    for sigma in minterms(lr.support):
        lg = base_l.extend(sigma)
        for sigma2 in minterms(ll.support):
            rg = base_r.extend(sigma2)
            out.extend(_atomic(GenConstraint(lg, low.lhs, rg, up.rhs), lattice, nperms))
    return out


def saturate(atoms: list[GenConstraint], lattice: Lattice, nperms: int,
             ctx: _Ctx | None = None) -> list[GenConstraint]:
    """Close under transitivity; regroup self-guarded variables into pieces."""
    if ctx is None:
        vids = {v for a in atoms for v in term_vars(a.lhs) | term_vars(a.rhs)}
        ctx = _Ctx(max(vids, default=-1) + 1)
    while True:
        result, selfvar = _saturate_pass(atoms, lattice, nperms)
        if selfvar is None:
            return result
        atoms = _split_var(result, selfvar, ctx, lattice, nperms)


def _saturate_pass(atoms, lattice, nperms):
    seen: set[GenConstraint] = set()
    registered: list[GenConstraint] = []
    lowers: dict[int, list[GenConstraint]] = {}
    uppers: dict[int, list[GenConstraint]] = {}
    queue = list(reversed(atoms))
    while queue:
        a = queue.pop()
        if a in seen:
            continue
        if (
            isinstance(a.lhs, TVar)
            and isinstance(a.rhs, TVar)
            and a.lhs.vid == a.rhs.vid
        ):
            if a.lguard == a.rguard:
                continue
            # A self-guarded variable: hand it back for regrouping.
            return registered + [a] + list(reversed(queue)), a.lhs.vid
        seen.add(a)
        registered.append(a)
        if isinstance(a.rhs, TVar):
            v = a.rhs.vid
            lowers.setdefault(v, []).append(a)
            for up in uppers.get(v, ()):
                queue.extend(_derive(a, up, lattice, nperms))
        if isinstance(a.lhs, TVar):
            v = a.lhs.vid
            uppers.setdefault(v, []).append(a)
            for low in lowers.get(v, ()):
                queue.extend(_derive(low, a, lattice, nperms))
    return registered, None


def _split_var(atoms, vid, ctx: _Ctx, lattice, nperms) -> list[GenConstraint]:
    """Replace ``vid`` by one fresh piece variable per guard-support cell."""
    support = 0
    for a in atoms:
        if isinstance(a.lhs, TVar) and a.lhs.vid == vid:
            support |= a.lguard.support
        if isinstance(a.rhs, TVar) and a.rhs.vid == vid:
            support |= a.rguard.support
    cells = minterms(support)
    piece_of = {sigma.pos: ctx.fresh_piece() for sigma in cells}
    ctx.pieces[vid] = (support, piece_of)

    out: list[GenConstraint] = []
    for a in atoms:
        on_left = isinstance(a.lhs, TVar) and a.lhs.vid == vid
        on_right = isinstance(a.rhs, TVar) and a.rhs.vid == vid
        if not on_left and not on_right:
            out.append(a)
            continue
        if on_left and on_right:
            for q in cells:
                sl = a.lguard.extend(q)
                sr = a.rguard.extend(q)
                if sl.pos == sr.pos:
                    continue
                out.extend(_atomic(
                    GenConstraint(sl, TVar(piece_of[sl.pos]), sr, TVar(piece_of[sr.pos])),
                    lattice, nperms))
        elif on_right:
            for sigma in cells:
                if not sigma.compatible(a.rguard):
                    continue
                delta = sigma.diff(a.rguard)
                out.extend(_atomic(
                    GenConstraint(a.lguard.extend(delta), a.lhs, sigma,
                                  TVar(piece_of[sigma.pos])),
                    lattice, nperms))
        else:
            for sigma in cells:
                if not sigma.compatible(a.lguard):
                    continue
                delta = sigma.diff(a.lguard)
                out.extend(_atomic(
                    GenConstraint(sigma, TVar(piece_of[sigma.pos]),
                                  a.rguard.extend(delta), a.rhs),
                    lattice, nperms))
    return out


# -------------------------------------------------------------------- sweep

def _bound_roles(atoms):
    """Assign every atom to the variable it bounds.

    Ground bounds attach to their variable; a variable-variable atom is a
    bound of the smaller-id side only, so bound terms always have larger
    ids and are already solved when the sweep reaches their owner.
    """
    lows: dict[int, list[GenConstraint]] = {}
    ups: dict[int, list[GenConstraint]] = {}
    for a in atoms:
        lv = isinstance(a.lhs, TVar)
        rv = isinstance(a.rhs, TVar)
        if lv and rv:
            if a.rhs.vid < a.lhs.vid:
                lows.setdefault(a.rhs.vid, []).append(a)
            else:
                ups.setdefault(a.lhs.vid, []).append(a)
        elif rv:
            lows.setdefault(a.rhs.vid, []).append(a)
        elif lv:
            ups.setdefault(a.lhs.vid, []).append(a)
    return lows, ups


def _sweep(atoms, lattice: Lattice, nperms: int, vids: set[int]) -> dict[int, BaseType]:
    """Per-variable merge and unification in decreasing variable order."""
    lows, ups = _bound_roles(atoms)
    size = 1 << nperms
    bot = embed(lattice.bottom, lattice, nperms)
    theta: dict[int, BaseType] = {}

    def ground_of(term: Term) -> BaseType:
        if isinstance(term, TGround):
            return term.type
        return theta[term.vid]

    for vid in sorted(vids, reverse=True):
        vlows = lows.get(vid, [])
        vups = ups.get(vid, [])
        table = list(bot.table)
        for a in vlows:
            g = ground_of(a.lhs)
            lg, rg = a.lguard, a.rguard
            for q in range(size):
                p = rg.remap(q)
                table[p] = lattice.join(table[p], g.at(lg.remap(q)))
        t = BaseType(lattice, nperms, tuple(table))
        for a in vups:
            g = ground_of(a.rhs)
            lg, rg = a.lguard, a.rguard
            for q in range(size):
                lo_v = t.at(lg.remap(q))
                hi_v = g.at(rg.remap(q))
                if not lattice.leq(lo_v, hi_v):
                    raise UnsatError(a, q)
        theta[vid] = t
    return theta


# ------------------------------------------------------- symbolic reference

def symbolic_solve(
    constraints,
    lattice: Lattice,
    nperms: int,
    requested: tuple[int, ...] = (),
) -> dict[int, BaseType]:
    """Least substitution by decompose, saturate and sweep, or UnsatError.

    The reference for ``solve``'s substitution: exponential in ``nperms``.
    """
    gens = generalize(constraints)
    atoms = decompose(gens, lattice, nperms)
    vids = {v for a in atoms for v in term_vars(a.lhs) | term_vars(a.rhs)}
    vids |= set(requested)
    ctx = _Ctx(max(vids, default=-1) + 1)
    atoms = saturate(atoms, lattice, nperms, ctx)
    sweep_vids = {v for a in atoms for v in term_vars(a.lhs) | term_vars(a.rhs)}
    sweep_vids |= vids
    for _support, piece_of in ctx.pieces.values():
        sweep_vids |= set(piece_of.values())
    sweep_vids -= set(ctx.pieces)  # split parents are reconstituted below
    theta = _sweep(atoms, lattice, nperms, sweep_vids)

    # Reconstitute split variables cell-wise from their pieces.
    def resolve(vid: int) -> BaseType:
        if vid in theta:
            return theta[vid]
        support, piece_of = ctx.pieces[vid]
        table = []
        for pset in range(1 << nperms):
            piece = resolve(piece_of[pset & support])
            table.append(piece.at(pset))
        t = BaseType(lattice, nperms, tuple(table))
        theta[vid] = t
        return t

    for vid in vids:
        resolve(vid)
    return theta


# ---------------------------------------------------------- worklist fixpoint

def _reads(term, pset: int, forbid=()) -> list[tuple[int, int]]:
    """The cells ``eval_term(term, pset, ...)`` reads.

    They are also the cells to raise when a right side must cover a level:
    it does once every cell under its meets, merges and projections does.
    ``forbid`` names the term class that makes such a write inexact.
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


def _has_ground(term) -> bool:
    """Whether a ground type occurs anywhere in ``term``."""
    if isinstance(term, TGround):
        return True
    if isinstance(term, TVar):
        return False
    if isinstance(term, (TJoin, TMeet)):
        return _has_ground(term.lhs) or _has_ground(term.rhs)
    if isinstance(term, TMerge):
        return _has_ground(term.then) or _has_ground(term.els)
    return _has_ground(term.term)


def least_fixpoint(
    constraints, requested, lattice: Lattice, nperms: int, start=None
) -> dict[int, BaseType]:
    """Least types for ``requested`` and every variable of ``constraints``
    meeting every lower bound of ``constraints``, raised from ``start``'s
    types (bottom for a variable it lacks).

    ``start`` must lie below that least solution, or the result is not
    the least one. Upper bounds that stay violated at the fixpoint are left
    to the caller.
    """
    vids = set(requested)
    for c in constraints:
        vids |= term_vars(c.lhs) | term_vars(c.rhs)
    start = start or {}
    vids |= start.keys()
    if not vids:
        return {}  # nothing to solve: every constraint is ground
    size = 1 << nperms
    tables = {v: list(start[v].table) if v in start else [lattice.bottom] * size
              for v in vids}

    items: list[tuple] = []  # (left side, instance, cells its right side writes)
    readers: dict[tuple[int, int], list[int]] = {}
    for c in constraints:
        for q in entailed_sets(c.guard, nperms):
            writes = _reads(c.rhs, q, TJoin)
            if not writes:
                continue  # a ground right side: left to the final check
            for cell in _reads(c.lhs, q):
                readers.setdefault(cell, []).append(len(items))
            items.append((c.lhs, q, writes))

    join = lattice.join
    queue = deque(range(len(items)))
    queued = [True] * len(items)
    while queue:
        i = queue.popleft()
        queued[i] = False
        src, q, writes = items[i]
        level = eval_term(src, q, tables, lattice)
        for cell in writes:
            vid, p = cell
            row = tables[vid]
            new = join(row[p], level)
            if new != row[p]:
                row[p] = new
                for j in readers.get(cell, ()):
                    if not queued[j]:
                        queued[j] = True
                        queue.append(j)
    return {v: BaseType(lattice, nperms, tuple(tbl)) for v, tbl in tables.items()}


# -------------------------------------------------------------------- solve

def _cone(constraints) -> list[int]:
    """The indices, ascending, of the constraints that can decide the
    verdict on ``constraints``.

    The roots are the constraints with a ground part on the right. The cone
    holds them and every constraint whose right side names a variable that
    a root's sides or a member's left side names, closed transitively. So
    every constraint that can raise a cell a member reads is a member; the
    constraints outside can raise only cells that no member reads.
    """
    roots = [i for i, c in enumerate(constraints) if _has_ground(c.rhs)]
    if not roots:
        return []
    writers: dict[int, list[int]] = {}
    for i, c in enumerate(constraints):
        for v in term_vars(c.rhs):
            writers.setdefault(v, []).append(i)
    members = set(roots)
    todo = set()
    for i in roots:
        todo |= term_vars(constraints[i].lhs) | term_vars(constraints[i].rhs)
    done: set[int] = set()
    while todo:
        v = todo.pop()
        done.add(v)
        for i in writers.get(v, ()):
            if i not in members:
                members.add(i)
                todo |= term_vars(constraints[i].lhs) - done
    return sorted(members)


def refutation(constraints, lattice: Lattice, nperms: int):
    """The verdict on ``constraints``: the indices of its cone (``_cone``),
    the least solution of the cone, and the first root that solution
    refutes with its least witness, or None when it refutes none.

    The least solution of the whole set refutes a constraint exactly when
    every solution does, so the third item is None exactly when the set is
    satisfiable. Only the roots need checking: when the fixpoint's worklist
    drains, each instance was last examined after the last raise of any
    cell its left side reads, and that examination joined its left level
    into every cell its right side reads; a right side made only of
    variables, meets, merges and projections covers a level once each of
    those cells does. And on every cell that a root reads the cone's least
    solution is the whole set's, because the cone holds every constraint
    that writes such a cell and, transitively, every constraint that writes
    a cell a member's left side reads. So the first refuted root, in
    generation order, and its least witness are those of the whole set.
    """
    cone = _cone(constraints)
    members = [constraints[i] for i in cone]
    theta = least_fixpoint(members, (), lattice, nperms)
    for c in members:
        if _has_ground(c.rhs):
            q = constraint_witness(c, theta, lattice, nperms)
            if q is not None:
                return cone, theta, (c, q)
    return cone, theta, None


def solve(
    constraints,
    lattice: Lattice,
    nperms: int,
    requested: tuple[int, ...] = (),
) -> dict[int, BaseType]:
    """Least substitution of a guarded constraint set, or UnsatError.

    ``refutation`` decides the set; the constraint it refutes is reported
    with its witness and the core that greedy deletion in generation order
    keeps (``_minimize_core``). A satisfiable set is solved from the cone's
    least solution up, over the constraints outside the cone only: none of
    them writes a cell a cone member reads, so no cone member needs another
    look.
    """
    constraints = list(constraints)
    cone, theta, refuted = refutation(constraints, lattice, nperms)
    if refuted is not None:
        c, q = refuted
        core = _minimize_core([constraints[i] for i in cone], lattice, nperms)
        raise UnsatError(c, q, core=core)
    if cone:
        inside = set(cone)
        constraints = [c for i, c in enumerate(constraints) if i not in inside]
    return least_fixpoint(constraints, requested, lattice, nperms, theta)


def _minimize_core(cone, lattice, nperms):
    """The core that greedy deletion in generation order keeps, searched
    inside the cone by galloping search.

    Greedy deletion drops ``cone[i]`` when the constraints it has kept so
    far together with ``cone[i + 1:]`` are still unsatisfiable.
    Unsatisfiability is monotone in the constraint set, so the next
    constraint it keeps is the largest ``j`` for which ``kept + cone[j:]``
    is unsatisfiable. An unbounded search from the last kept index finds
    it (Bentley & Yao, "An almost optimal algorithm for unbounded
    searching", IPL 1976): it probes 1, 3, 7, ... places past where it
    starts until a probe is satisfiable, then bisects below that probe. A
    member g places past the start (the cone's first index, or the one
    after the previous member) costs at most 2·⌊log2(g + 1)⌋ + 1 reruns of
    ``refutation``, and one more asks whether ``kept`` alone is already
    unsatisfiable, where the search stops. The reruns see only the cone,
    and a member next to the previous one costs two of them.

    Greedy deletion over a whole constraint set keeps the same core as over
    its cone: any subset has the same verdict as its part inside the cone,
    because its own cone lies inside both. So a constraint outside the cone
    is always dropped, and every other decision is the same.
    """
    n = len(cone)
    kept: list[int] = []

    def unsat_from(start: int) -> bool:
        picked = [cone[i] for i in kept] + cone[start:]
        return refutation(picked, lattice, nperms)[2] is not None

    lo = 0  # kept + cone[lo:] is unsatisfiable; kept alone is not
    while True:
        hi = n
        step = 1
        while lo + step < n:
            if not unsat_from(lo + step):
                hi = lo + step
                break
            lo += step
            step *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if unsat_from(mid):
                lo = mid
            else:
                hi = mid
        kept.append(lo)
        lo += 1
        if lo == n or unsat_from(n):
            return [cone[i] for i in kept]
