import pytest

from permflow.basetypes import embed
from permflow.traces import (
    EPSILON,
    InconsistentTrace,
    Trace,
    minterms,
    trace_of_set,
)

from .conftest import bt, lattice_family, random_basetype, random_trace
from .declarative import apply_trace, demote, entailed_by, promote


def test_epsilon_identity(two_point):
    t = bt(two_point, "L", "H")
    assert apply_trace(t, EPSILON) == t


def test_first_application_wins(two_point):
    t = bt(two_point, "L", "H")
    up = apply_trace(t, Trace(pos=0b1))
    assert apply_trace(up, Trace(neg=0b1)) == up


def test_entails_and_sat():
    assert entailed_by(Trace(pos=0b01), 0b01)
    assert not entailed_by(Trace(pos=0b11), 0b01)
    # +p and -p have no common model; +p and -q have {p} as their only one
    assert not Trace(pos=0b1).compatible(Trace(neg=0b1))
    a, b = Trace(pos=0b01), Trace(neg=0b10)
    assert a.compatible(b)
    assert [p for p in range(4) if entailed_by(a, p) and entailed_by(b, p)] == [0b01]


def test_inconsistent_trace_rejected():
    with pytest.raises(InconsistentTrace):
        Trace(pos=0b1, neg=0b1)


def test_minterms_partition():
    support = 0b101
    cells = minterms(support)
    assert len(cells) == 4
    for pset in range(8):
        assert sum(entailed_by(c, pset) for c in cells) == 1


def test_diff_is_literal_set_difference():
    a = Trace(pos=0b011, neg=0b100)
    b = Trace(pos=0b001)
    d = a.diff(b)
    assert d == Trace(pos=0b010, neg=0b100)


def test_trace_of_set():
    t = trace_of_set(0b01, 2)
    assert [p for p in range(4) if entailed_by(t, p)] == [0b01]


# Randomized algebraic laws of the trace application.


def _signed(rnd, perm):
    return Trace(pos=1 << perm) if rnd.random() < 0.5 else Trace(neg=1 << perm)


def test_commutation_on_distinct_permissions(rng):
    # order of signed applications on different permissions is irrelevant
    for lat in lattice_family():
        for _ in range(500):
            nperms = rng.randint(2, 4)
            t = random_basetype(rng, lat, nperms)
            p, q = rng.sample(range(nperms), 2)
            sp, sq = _signed(rng, p), _signed(rng, q)
            assert apply_trace(apply_trace(t, sp), sq) == apply_trace(
                apply_trace(t, sq), sp
            )


def test_commutation_with_whole_trace(rng):
    # a signed application commutes with any trace not mentioning it
    for lat in lattice_family():
        for _ in range(500):
            nperms = rng.randint(1, 4)
            t = random_basetype(rng, lat, nperms)
            p = rng.randrange(nperms)
            sp = _signed(rng, p)
            trace = random_trace(rng, nperms)
            trace = Trace(trace.pos & ~(1 << p), trace.neg & ~(1 << p))
            assert apply_trace(apply_trace(t, sp), trace) == apply_trace(
                apply_trace(t, trace), sp
            )


def test_repeated_application_keeps_first(rng):
    for lat in lattice_family():
        for _ in range(400):
            nperms = rng.randint(1, 4)
            t = random_basetype(rng, lat, nperms)
            p = rng.randrange(nperms)
            first, second = _signed(rng, p), _signed(rng, p)
            assert apply_trace(apply_trace(t, first), second) == apply_trace(t, first)


def test_trace_application_idempotent(rng):
    for lat in lattice_family():
        for _ in range(400):
            nperms = rng.randint(1, 4)
            t = random_basetype(rng, lat, nperms)
            trace = random_trace(rng, nperms)
            once = apply_trace(t, trace)
            assert apply_trace(once, trace) == once


def test_present_permission_promotion_is_identity(rng):
    # promotion is invisible at sets containing p; demotion at sets without
    for lat in lattice_family():
        for _ in range(400):
            nperms = rng.randint(1, 4)
            t = random_basetype(rng, lat, nperms)
            p = rng.randrange(nperms)
            for pset in range(1 << nperms):
                if pset >> p & 1:
                    assert promote(t, p).at(pset) == t.at(pset)
                else:
                    assert demote(t, p).at(pset) == t.at(pset)


def test_application_monotone(rng):
    for lat in lattice_family():
        for _ in range(300):
            nperms = rng.randint(1, 3)
            s = random_basetype(rng, lat, nperms)
            t = random_basetype(rng, lat, nperms)
            if not s.leq(t):
                continue
            trace = random_trace(rng, nperms)
            assert apply_trace(s, trace).leq(apply_trace(t, trace))


def test_merge_commutes_with_traces_avoiding_p(rng):
    from permflow.basetypes import merge

    for lat in lattice_family():
        for _ in range(300):
            nperms = rng.randint(1, 3)
            s = random_basetype(rng, lat, nperms)
            t = random_basetype(rng, lat, nperms)
            p = rng.randrange(nperms)
            trace = random_trace(rng, nperms)
            trace = Trace(trace.pos & ~(1 << p), trace.neg & ~(1 << p))
            lhs = apply_trace(merge(p, s, t), trace)
            rhs = merge(p, apply_trace(s, trace), apply_trace(t, trace))
            assert lhs == rhs


def test_order_reflected_by_both_signs(rng):
    # s <= t iff both the p-promoted and p-demoted views are ordered
    for lat in lattice_family():
        for _ in range(300):
            nperms = rng.randint(1, 3)
            s = random_basetype(rng, lat, nperms)
            t = random_basetype(rng, lat, nperms)
            p = rng.randrange(nperms)
            both = promote(s, p).leq(promote(t, p)) and demote(s, p).leq(demote(t, p))
            assert both == s.leq(t)


def test_semantic_agreement(rng):
    # applying a trace equals evaluating at the remapped permission set
    for lat in lattice_family():
        for _ in range(300):
            nperms = rng.randint(1, 4)
            t = random_basetype(rng, lat, nperms)
            trace = random_trace(rng, nperms)
            applied = apply_trace(t, trace)
            for pset in range(1 << nperms):
                assert applied.at(pset) == t.at(trace.remap(pset))


def test_constant_type_fixed_by_traces(rng, diamond):
    for name in diamond.names:
        c = embed(diamond.level(name), diamond, 3)
        for _ in range(20):
            trace = random_trace(rng, 3)
            assert apply_trace(c, trace) == c
