import pytest

from permflow.basetypes import (
    PermUniverse,
    UniverseMismatch,
    embed,
    format_type,
    merge,
)
from permflow.parser import Parser

from .conftest import bt, lattice_family, random_basetype
from .declarative import demote, promote


def test_embed_is_constant(two_point, diamond):
    L = two_point.level("L")
    t = embed(L, two_point, 2)
    assert t.table == (L,) * 4
    H = two_point.level("H")
    assert embed(H, two_point, 0).at(0) == H
    assert embed(diamond.level("l1"), diamond, 1).leq(embed(diamond.level("H"), diamond, 1))


def test_pointwise_order(two_point):
    s = bt(two_point, "L", "H")  # {} -> L, {p} -> H
    assert embed(two_point.level("L"), two_point, 1).leq(s)
    assert not s.leq(embed(two_point.level("L"), two_point, 1))


def test_join_meet_pointwise(diamond):
    a = bt(diamond, "l1", "L")
    b = bt(diamond, "l2", "L")
    joined = a.join(b)
    # oracle: independent pointwise lub by table lookup
    expect = tuple(diamond.join(x, y) for x, y in zip(a.table, b.table))
    assert joined.table == expect
    assert joined == bt(diamond, "H", "L")
    assert a.meet(b) == bt(diamond, "L", "L")


def test_join_is_least_upper_bound(rng):
    # the base-type order forms a lattice with pointwise join/meet
    for lat in lattice_family():
        for _ in range(60):
            s = random_basetype(rng, lat, 2)
            t = random_basetype(rng, lat, 2)
            j = s.join(t)
            assert s.leq(j) and t.leq(j)
            u = random_basetype(rng, lat, 2)
            if s.leq(u) and t.leq(u):
                assert j.leq(u)
            m = s.meet(t)
            assert m.leq(s) and m.leq(t)
            if u.leq(s) and u.leq(t):
                assert u.leq(m)


def test_promote_demote_two_point(two_point):
    t = bt(two_point, "L", "H")
    H = embed(two_point.level("H"), two_point, 1)
    L = embed(two_point.level("L"), two_point, 1)
    assert promote(t, 0) == H
    assert demote(t, 0) == L


def test_promote_constant_fixed_point(diamond):
    for name in diamond.names:
        c = embed(diamond.level(name), diamond, 2)
        assert promote(c, 0) == c and promote(c, 1) == c
        assert demote(c, 0) == c and demote(c, 1) == c


def test_promote_on_two_permissions(diamond):
    # t = {{}: L, {p}: l1, {q}: l2, {p,q}: H}; evaluate t(P ∪ {q}) per set
    t = bt(diamond, "L", "l1", "l2", "H")
    expect = tuple(t.table[p | 0b10] for p in range(4))
    assert promote(t, 1).table == expect
    assert promote(t, 1) == bt(diamond, "l2", "H", "l2", "H")


def test_project(two_point):
    t = bt(two_point, "L", "H")
    assert t.project(0b1) == embed(two_point.level("H"), two_point, 1)
    assert t.project(0) == embed(two_point.level("L"), two_point, 1)
    c = embed(two_point.level("H"), two_point, 1)
    for pset in range(2):
        assert c.project(pset) == c


def test_merge(two_point):
    H = embed(two_point.level("H"), two_point, 1)
    L = embed(two_point.level("L"), two_point, 1)
    assert merge(0, H, L) == bt(two_point, "L", "H")
    t = bt(two_point, "H", "L")
    assert merge(0, t, t) == t
    assert merge(0, L, L) == L


def test_merge_case_split(rng, diamond):
    for _ in range(50):
        t1 = random_basetype(rng, diamond, 2)
        t2 = random_basetype(rng, diamond, 2)
        for perm in range(2):
            m = merge(perm, t1, t2)
            for pset in range(4):
                want = t1.at(pset) if pset >> perm & 1 else t2.at(pset)
                assert m.at(pset) == want


def test_universe_mismatch(two_point, diamond):
    a = embed(two_point.level("L"), two_point, 1)
    b = embed(diamond.level("L"), diamond, 1)
    with pytest.raises(UniverseMismatch):
        a.join(b)
    c = embed(two_point.level("L"), two_point, 2)
    with pytest.raises(UniverseMismatch):
        a.join(c)


def test_format_parse_roundtrip(rng, diamond):
    uni = PermUniverse(("p", "q"))
    header = (
        "lattice { levels L, l1, l2, H; order L < l1, L < l2, l1 < H, l2 < H; }\n"
        "permissions { p, q }\n"
    )
    for _ in range(40):
        t = random_basetype(rng, diamond, 2)
        literal = format_type(t, uni)
        parser = Parser(header)
        parser._parse_lattice()
        parser._parse_permissions()
        parser.tokens = parser.tokens[:-1]
        from permflow.parser import tokenize

        parser.tokens = tokenize(literal)
        parser.i = 0
        parsed = parser._parse_basetype()
        assert parsed.table == t.table


def test_permission_cap():
    from permflow.basetypes import PermTypeError

    with pytest.raises(PermTypeError):
        PermUniverse(tuple(f"p{i}" for i in range(13)))
    PermUniverse(tuple(f"p{i}" for i in range(12)))

