import os

import pytest

from permflow.basetypes import BaseType, embed
from permflow.inference import annotate, infer_system
from permflow.interp import call_function
from permflow.nitest import nitest_system
from permflow.parser import parse_system
from permflow.system import validate_system

from .conftest import bt, random_basetype
from .declarative import demote, promote

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")


def load(name: str, with_types=False):
    with open(os.path.join(PROGRAMS, name), "r", encoding="utf-8") as fh:
        csys = validate_system(parse_system(fh.read()))
    if with_types and any(d.annotation is None for d in csys.fd.values()):
        csys = annotate(csys, infer_system(csys).types())
    return csys


def indistinguishable(
    env1: dict[str, int],
    env2: dict[str, int],
    gamma: dict[str, BaseType],
    observer: int,
) -> bool:
    """Environments agree on every variable whose type the observer bounds.

    A variable is observable only when its type sits below the observer
    level at *every* permission set; agreement means both defined and equal
    or both undefined.
    """
    for name, t in gamma.items():
        lat = t.lattice
        bound = embed(observer, lat, t.nperms)
        if t.leq(bound):
            if (name in env1) != (name in env2):
                return False
            if name in env1 and env1[name] != env2[name]:
                return False
    return True


def test_indistinguishable_only_observable_vars_matter(two_point):
    lat = two_point
    gamma = {"x": embed(lat.level("H"), lat, 1), "y": embed(lat.level("L"), lat, 1)}
    L = lat.level("L")
    assert indistinguishable({"x": 1, "y": 5}, {"x": 9, "y": 5}, gamma, L)
    assert not indistinguishable({"x": 1, "y": 5}, {"x": 1, "y": 6}, gamma, L)


def test_indistinguishable_quantifies_over_all_permission_sets(two_point):
    # a variable readable at L only for some permission sets is NOT bounded
    # by the observer, so it places no agreement obligation
    lat = two_point
    gamma = {"x": bt(lat, "L", "H")}
    assert indistinguishable({"x": 0}, {"x": 7}, gamma, lat.level("L"))
    # after projecting on the empty set it becomes observable
    proj = {"x": gamma["x"].project(0)}
    assert not indistinguishable({"x": 0}, {"x": 7}, proj, lat.level("L"))


def test_indistinguishable_undefined_both_sides(two_point):
    lat = two_point
    gamma = {"x": embed(lat.level("L"), lat, 1)}
    assert indistinguishable({}, {}, gamma, lat.level("L"))
    assert not indistinguishable({"x": 0}, {}, gamma, lat.level("L"))


def test_equivalence_relation(rng, diamond):
    lat = diamond
    names = ["a", "b", "c"]
    for _ in range(80):
        gamma = {n: random_basetype(rng, lat, 2) for n in names}
        obs = rng.randrange(len(lat))
        envs = [
            {n: rng.randrange(3) for n in names} for _ in range(3)
        ]
        e1, e2, e3 = envs
        assert indistinguishable(e1, e1, gamma, obs)
        if indistinguishable(e1, e2, gamma, obs):
            assert indistinguishable(e2, e1, gamma, obs)
            if indistinguishable(e2, e3, gamma, obs):
                assert indistinguishable(e1, e3, gamma, obs)


def test_projection_refines_indistinguishability(rng, diamond):
    # Projecting on P makes a variable observable exactly when its level at
    # P is bounded by the observer, a weaker condition than being bounded at
    # every permission set; the projected relation therefore carries more
    # obligations and implies the plain one. The converse fails: with
    # x : {(): L, (p): H} at an L observer, differing x values are plainly
    # indistinguishable but distinguishable after projecting on {}.
    lat = diamond
    names = ["a", "b"]
    for _ in range(150):
        gamma = {n: random_basetype(rng, lat, 2) for n in names}
        obs = rng.randrange(len(lat))
        e1 = {n: rng.randrange(3) for n in names}
        e2 = {n: rng.randrange(3) for n in names}
        for pset in range(4):
            proj = {n: t.project(pset) for n, t in gamma.items()}
            if indistinguishable(e1, e2, proj, obs):
                assert indistinguishable(e1, e2, gamma, obs)


def test_projection_counterexample_to_plain_direction(two_point):
    lat = two_point
    gamma = {"x": bt(lat, "L", "H")}
    e1, e2 = {"x": 0}, {"x": 7}
    assert indistinguishable(e1, e2, gamma, lat.level("L"))
    proj = {"x": gamma["x"].project(0)}
    assert not indistinguishable(e1, e2, proj, lat.level("L"))


def _relation(gamma, obs, domain=(0, 1)):
    """The full indistinguishability relation over a tiny env space."""
    from itertools import product

    names = sorted(gamma)
    envs = [dict(zip(names, vals)) for vals in product(domain, repeat=len(names))]
    rel = set()
    for i, e1 in enumerate(envs):
        for j, e2 in enumerate(envs):
            if indistinguishable(e1, e2, gamma, obs):
                rel.add((i, j))
    return rel


def test_promotion_stability_under_projection(rng, two_point):
    # with p present, projecting the promoted environment changes nothing;
    # with p absent, likewise for the demoted environment
    lat = two_point
    for _ in range(100):
        gamma = {n: random_basetype(rng, lat, 1) for n in ("a", "b")}
        obs = rng.randrange(2)
        for pset in (0, 1):
            proj = {n: t.project(pset) for n, t in gamma.items()}
            if pset & 1:
                promoted = {n: promote(t, 0).project(pset) for n, t in gamma.items()}
                assert _relation(proj, obs) == _relation(promoted, obs)
            else:
                demoted = {n: demote(t, 0).project(pset) for n, t in gamma.items()}
                assert _relation(proj, obs) == _relation(demoted, obs)


def test_leaky_function_yields_violation(two_point):
    csys = load("leaky.pf")
    cells = nitest_system(csys, observers=(csys.lattice.level("L"),)).cells
    bad = [c for c in cells if c.verdict == "violation"]
    assert bad, cells
    w = bad[0].witness
    assert w.env1["x"] != w.env2["x"] and w.out1 != w.out2


def test_violation_witness_replays(two_point):
    csys = load("leaky.pf")
    report = nitest_system(csys, observers=(csys.lattice.level("L"),))
    cell = next(c for c in report.cells if c.witness)
    w = cell.witness
    params = csys.fd["A.bad"].params
    # a witness values the parameters only, the inputs a call passes
    for env, expected in ((w.env1, w.out1), (w.env2, w.out2)):
        assert env.keys() == set(params)
        args = [env[name] for name in params]
        assert call_function(csys, "A.bad", args, cell.perms) == expected


def test_constant_function_clean_everywhere(two_point):
    csys = load("constfun.pf")
    report = nitest_system(csys)
    assert report.ok
    assert all(c.verdict in ("ok", "skipped") for c in report.cells)


def test_getinfo_system_clean():
    csys = load("getinfo.pf", with_types=True)
    report = nitest_system(csys)
    assert report.ok
    tested = [c for c in report.cells if c.verdict == "ok"]
    assert tested  # the grid actually exercised some cells


def test_unsound_table_detected():
    # the forwarding annotation A.f : t -> L passes secrets to callers
    # without the permission; the harness catches what the checker refuses
    csys = load("laundering.pf")
    report = nitest_system(csys)
    bad = {c.function for c in report.violations}
    assert "A.f" in bad


def test_skip_gate_and_strict_mode():
    csys = load("getsecret.pf")
    L = csys.lattice.level("L")
    gated = nitest_system(csys, observers=(L,)).cells
    skipped = [c for c in gated if c.verdict == "skipped"]
    assert skipped and skipped[0].perms == 0b1  # H return not L-observable
    strict = nitest_system(csys, observers=(L,), strict=True).cells
    assert all(c.verdict == "ok" for c in strict)


def test_fuel_exhaustion_is_inconclusive():
    src = """
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun spin(x : L) : L { init r = 0 in { while x do r := r; return r } }
}
"""
    csys = validate_system(parse_system(src))
    cells = nitest_system(csys, observers=(csys.lattice.level("L"),), fuel=40).cells
    assert any(c.verdict == "inconclusive" for c in cells)
    assert not any(c.verdict == "violation" for c in cells)


def test_pair_cap_is_explicit():
    csys = load("leaky.pf")
    cells = nitest_system(csys, observers=(csys.lattice.level("L"),), pair_cap=3).cells
    assert all(c.verdict == "inconclusive" for c in cells)
    assert "cap" in cells[0].note


def test_domain_needs_two_values():
    with pytest.raises(ValueError, match="domain must offer at least two values"):
        nitest_system(load("leaky.pf"), domain=(1,))


@pytest.mark.parametrize("domain", [(1, 1), (0, 0, 1)])
def test_domain_values_must_be_distinct(domain):
    # (1, 1) offers one value, so the leak in A.bad would go unseen, and a
    # repeated value would count pairs twice
    with pytest.raises(ValueError, match="domain values must be distinct"):
        nitest_system(load("leaky.pf"), domain=domain)


# h = 2^64 wraps to 0 in a call, so a run that kept it whole would report
# a violation (out2 = 1) that no call replays
WRAPS_TO_ZERO = """
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(x : L, h : H) : L {
    init r = 0 in { r := h; r := 0; if h then r := 1 else r := 0; return r }
  }
}
"""


@pytest.mark.parametrize("domain", [
    (0, 2**64), (-2**63 - 1, 0),
    range(2**63 - 1, 2**63 + 1), range(-2**63 - 1, -2**63 + 1),
], ids=["past-top", "below-bottom", "range-past-top", "range-below-bottom"])
def test_domain_values_must_be_64_bit(domain):
    csys = validate_system(parse_system(WRAPS_TO_ZERO))
    assert call_function(csys, "A.f", [0, 2**64], 0) == 0
    with pytest.raises(ValueError, match="domain values must be 64-bit integers"):
        nitest_system(csys, domain=domain)


def test_domain_range_too_long_to_count():
    # 2^63 values, each a 64-bit integer: len() cannot count them
    with pytest.raises(ValueError, match="domain range too large"):
        nitest_system(load("leaky.pf"), domain=range(-2**62, 2**62))


def test_domain_at_the_64_bit_edges():
    csys = validate_system(parse_system(WRAPS_TO_ZERO))
    for domain in ((-2**63, 0), (0, 2**63 - 1), range(0, 2**63, 2**63 - 1)):
        cell = nitest_system(csys, domain=domain).violations[0]
        w = cell.witness
        for env, expected in ((w.env1, w.out1), (w.env2, w.out2)):
            assert call_function(csys, "A.f", [env["x"], env["h"]], cell.perms) == expected


def test_empty_system_ok():
    src = """
lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
}
"""
    csys = validate_system(parse_system(src))
    assert nitest_system(csys).ok
