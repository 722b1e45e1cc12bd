"""The bucketed NI harness against its pairwise reference and against the
interpreter's calls, and its cost.

``nitest._test_cell`` decides a cell bucket by bucket, over environments of
equal observable parts, from a store that the cells of its permission
class share: a bucket's environments that no cell of the class ran yet run
before the bucket is read; ``tests/pairwise.py`` runs
both sides of every pair.  Both must give field-for-field equal cells:
verdicts, pair counts, fuel notes and witnesses, down to the key order of
the witness environments.
"""

import random
from dataclasses import replace
from itertools import islice, product

import pytest

from permflow import nitest
from permflow.basetypes import BaseType, FunctionType
from permflow.interp import DEFAULT_FUEL, FuelExhausted, call_function
from permflow.nitest import nitest_system
from permflow.parser import parse_system
from permflow.system import validate_system

from .conftest import SEED
from .pairwise import pairwise_cell
from .progen import _Gen


def _counting(calls):
    """``nitest.exec_cmd``, counting its calls: a traced run's interpreter runs."""
    real = nitest.exec_cmd

    def counting(*args):
        calls.append(1)
        return real(*args)
    return counting


def _bucketed_matching_pairwise(monkeypatch, csys, **kwargs):
    """The harness's cells, checked against the pairwise reference's, and
    the number of interpreter runs the harness made."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(nitest, "exec_cmd", _counting(calls))
        cells = nitest_system(csys, **kwargs).cells
    with monkeypatch.context() as m:
        m.setattr(nitest, "_test_cell", pairwise_cell)
        reference = nitest_system(csys, **kwargs).cells
    # reprs show the key order of the witness environments too
    assert [repr(c) for c in cells] == [repr(c) for c in reference]
    return cells, len(calls)


def _visited(csys, cell, domain):
    """The environments a cell runs when no run exhausts its fuel, as
    valuations of the parameters, in declaration order."""
    decl = csys.fd[cell.function]
    gamma = dict(zip(decl.params, decl.annotation.params))
    obs, hidden = nitest._observable_split(gamma, cell.perms, cell.observer)
    d = len(domain)
    m = d ** len(hidden)
    if cell.verdict == "ok":
        count = d ** len(gamma)
    elif cell.verdict == "violation":
        # the witness pairs run 0 of bucket b with run j: the cell stopped
        # after b * m + j + 1 runs
        b, j = divmod(cell.pairs_tested - 1, m * m)
        count = b * m + j + 1
    else:
        assert cell.verdict == "skipped"
        count = 0
    names = (*obs, *hidden)
    for vals in islice(product(domain, repeat=len(names)), count):
        env = dict(zip(names, vals))
        yield tuple(env[name] for name in gamma)


def _shared_runs(csys, cells, domain, tested):
    """The distinct (function, permission class, environment) the cells
    visit; ``tested`` maps each function to the permissions its body tests."""
    return len({(c.function, c.perms & tested[c.function], env)
                for c in cells for env in _visited(csys, c, domain)})


def _unshared_runs(csys, cells, domain):
    return sum(1 for c in cells for _ in _visited(csys, c, domain))


def _randomly_annotated(rnd):
    # random annotations, checked or not, so that violations show up
    gen = _Gen(rnd)
    sys0 = gen.system()
    size = 1 << gen.nperms

    def rand_type():
        return BaseType(gen.lat, gen.nperms,
                        tuple(rnd.randrange(len(gen.lat)) for _ in range(size)))

    fd = {
        q: replace(decl, annotation=FunctionType(
            tuple(rand_type() for _ in decl.params), rand_type()))
        for q, decl in sys0.fd.items()
    }
    return validate_system(replace(sys0, fd=fd))


# Under the default observers the top observer's cell visits every
# environment of its class anyway; with a bottom observer alone, no cell of
# a class is the top one, and a witness leaves later buckets unrun.
@pytest.mark.parametrize("domain, bottom_only", [
    ((0, 1), False), ((0, 1, 2), False), ((0, 1), True), ((0, 1, 2), True),
], ids=["0..1", "0..2", "0..1-bottom", "0..2-bottom"])
def test_generated_systems_match_pairwise(monkeypatch, domain, bottom_only):
    verdicts = set()
    rnd = random.Random(SEED + 40 + len(domain))
    for _ in range(60):
        csys = _randomly_annotated(rnd)
        observers = (csys.lattice.bottom,) if bottom_only else None
        for fuel in (DEFAULT_FUEL, 12):
            cells, _ = _bucketed_matching_pairwise(
                monkeypatch, csys, observers=observers, domain=domain, fuel=fuel,
                strict=True)
            verdicts |= {c.verdict for c in cells}
    assert {"ok", "violation", "inconclusive"} <= verdicts


@pytest.mark.parametrize("domain", [(0, 1), (0, 1, 2)], ids=["0..1", "0..2"])
def test_harness_runs_are_calls(monkeypatch, domain):
    # An environment values the parameters only, the return variable starts
    # at 0 and each run starts with the whole fuel; running it gives what a
    # call on those arguments returns, or both run out of fuel.
    runs = []  # (function, arguments, permissions, fuel, output or None)
    real = nitest.exec_cmd

    def recording(env, ctx, c, csys):
        decl = next(d for d in csys.fd.values()
                    if d.body is c and d.app == ctx.app
                    and env.keys() == {*d.params, d.ret_var})
        assert env[decl.ret_var] == 0
        call = (decl.qualified, [env[name] for name in decl.params],
                ctx.caller_perms, ctx.fuel.remaining)
        try:
            real(env, ctx, c, csys)
        except FuelExhausted:
            runs.append((*call, None))
            raise
        runs.append((*call, env[decl.ret_var]))
        return env
    monkeypatch.setattr(nitest, "exec_cmd", recording)
    rnd = random.Random(SEED + 50 + len(domain))
    exhausted = 0
    for _ in range(40):
        csys = _randomly_annotated(rnd)
        for fuel in (DEFAULT_FUEL, 12):
            runs.clear()
            nitest_system(csys, domain=domain, fuel=fuel, strict=True)
            assert runs
            for qname, args, perms, start, out in runs:
                assert start == fuel
                try:
                    expected = call_function(csys, qname, args, perms, fuel)
                except FuelExhausted:
                    expected = None
                    exhausted += 1
                assert out == expected, (qname, args, perms, fuel)
    assert exhausted  # the fuel bound was reached, on both sides


# The loop runs 4 - n times, so a bucket's first hidden valuations (n = 0)
# cost the most fuel; x * h makes the output depend on h when x != 0.
HIDDEN_LOOP = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(x : L, n : H, h : H) : L {
    init r = 0 in {
      letvar i = 0 in {
        while i + n < 4 do { i := i + 1 }
      };
      r := r + x * h;
      return r
    }
  }
}
"""


def test_fuel_sweep_on_hidden_loop_matches_pairwise(monkeypatch):
    csys = validate_system(parse_system(HIDDEN_LOOP))
    L, H = csys.lattice.level("L"), csys.lattice.level("H")
    cells = []
    for fuel in range(0, 60):
        for domain in ((0, 1), (0, 1, 2)):
            sweep, runs = _bucketed_matching_pairwise(
                monkeypatch, csys, observers=(L, H), domain=domain, fuel=fuel)
            cells += sweep
            # the H observer sees every parameter, so its cells visit every
            # valuation of x, n and h; with the store, the runs of the L
            # cells, exhausted ones included, are not made again
            assert runs == len(domain) ** 3
    # partly exhausted buckets: some pairs ran out of fuel, others finished
    assert any(c.verdict == "inconclusive"
               and 0 < int(c.note.split()[0]) < c.pairs_tested for c in cells)
    # a violation whose first finished run follows exhausted ones
    assert any(c.verdict == "violation" and c.witness.env1["n"] != 0 for c in cells)
    assert any(c.verdict == "ok" for c in cells)


WIDE = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(a : L, b : L, h1 : H, h2 : H, h3 : H) : L {
    init r = 0 in { r := r + a * b; return r }
  }
}
"""


def test_one_interpreter_run_per_environment(monkeypatch):
    # The body tests no permission, so both permission sets and both
    # observers share one store: each environment runs once in all.
    csys = validate_system(parse_system(WIDE))
    calls = []
    monkeypatch.setattr(nitest, "exec_cmd", _counting(calls))
    L = csys.lattice.level("L")
    domain = (0, 1, 2)
    cells = nitest_system(csys, domain=domain).cells
    assert len(cells) == 4 and all(c.verdict == "ok" for c in cells)
    d = len(domain)
    assert len(calls) == d ** 5 == 243
    cell = next(c for c in cells if c.perms == 0 and c.observer == L)
    obs, hidden = 2, 3  # a, b; h1, h2, h3
    assert cell.pairs_tested == d ** obs * d ** (2 * hidden)

    # one observer's cells share across permission sets too
    calls.clear()
    cells = nitest_system(csys, observers=(L,), domain=domain).cells
    assert [c.verdict for c in cells] == ["ok", "ok"]
    assert len(calls) == 243


# The ni-grid benchmark's shape: 2 L and 3 H parameters, a loop, a test,
# one secure function and one that leaks an H parameter.
NI_GRID = """lattice { levels L, H; order L < H; }
permissions { p }
app N perms {p} {
  fun safe(a : L, b : L, h1 : H, h2 : H, h3 : H) : { {p}: H, _: L } {
    init r = 0 in {
      letvar i = 0 in { while i < 2 do { r := r + a + b; i := i + 1 } };
      test(p) r := r + h3 + h2 + h1 else r := r + b;
      return r
    }
  }
  fun leak(a : L, b : L, h1 : H, h2 : H, h3 : H) : L {
    init r = 0 in {
      letvar i = 0 in { while i < 2 do { r := r * a + b; i := i + 1 } };
      r := r + h2;
      return r
    }
  }
}
"""


def test_one_interpreter_call_per_predicted_run(monkeypatch):
    # A traced run counts the calls of nitest.exec_cmd as interpreter runs,
    # so there must be one per (permission class, environment) that the
    # cells visit: N.safe tests p, so its P={} and P={p} cells do not share.
    csys = validate_system(parse_system(NI_GRID))
    calls = []
    monkeypatch.setattr(nitest, "exec_cmd", _counting(calls))
    domain = range(0, 3)
    cells = nitest_system(csys, domain=domain).cells
    assert {c.verdict for c in cells} == {"ok", "violation", "skipped"}
    tested = {"N.safe": 0b1, "N.leak": 0}
    assert len(calls) == _shared_runs(csys, cells, domain, tested) == 729
    # without the stores, every cell would run all it visits itself
    assert _unshared_runs(csys, cells, domain) == 1223


def test_a_witness_leaves_later_buckets_unrun(monkeypatch):
    # With the L observer alone, N.safe's P={p} cell is skipped, so its
    # class runs nothing.  N.leak's cells stop at a witness in their first
    # bucket of 3^3 environments, which runs whole, before it is read: 23
    # more runs than the 4 that the witness pair needs.
    csys = validate_system(parse_system(NI_GRID))
    L = csys.lattice.level("L")
    cells, runs = _bucketed_matching_pairwise(monkeypatch, csys, observers=(L,),
                                              domain=range(0, 3))
    assert [c.verdict for c in cells] == ["ok", "skipped", "violation", "violation"]
    assert runs == 3 ** 5 + 3 ** 3 == 270
    tested = {"N.safe": 0b1, "N.leak": 0}
    assert _shared_runs(csys, cells, range(0, 3), tested) == 3 ** 5 + 4 == 247


def test_benchmark_ni_grid_runs(monkeypatch, workloads):
    # the systems that the ni-grid workload times: each of the 3^5
    # environments runs once per permission class
    for job in workloads.make_pass("ni-grid", 0):
        csys = validate_system(parse_system(job.source))
        _, runs = _bucketed_matching_pairwise(monkeypatch, csys, domain=range(0, 3))
        assert runs == 729


# A.g's nested tests over p and q split its classes into four.  Called from
# B, A.g runs under B's permissions whatever the caller of B.f or B.k
# holds, so its tests split no class of theirs; B.f's own test of q does.
CALLS_AND_NESTED_TESTS = """lattice { levels L, H; order L < H; }
permissions { p, q }
app A perms {p} {
  fun g(x : L, h : H) : { {p}: H, {p, q}: H, _: L } {
    init r = 0 in {
      test(p) { test(q) r := h else r := x } else r := x;
      return r
    }
  }
}
app B perms {p, q} {
  fun f(x : L, h : H) : { {q}: H, {p, q}: H, _: L } {
    init r = 0 in {
      r := call A.g(x, h);
      letvar i = 0 in { while i < 1 do { test(q) r := r + h else r := r; i := i + 1 } };
      return r
    }
  }
  fun k(x : L, h : H) : L {
    init r = 0 in { r := call A.g(h, x); return r }
  }
}
"""


def test_callee_tests_do_not_split_classes(monkeypatch):
    csys = validate_system(parse_system(CALLS_AND_NESTED_TESTS))
    domain = (0, 1, 2)
    cells, runs = _bucketed_matching_pairwise(monkeypatch, csys, domain=domain,
                                              strict=True)
    assert {c.verdict for c in cells} == {"ok", "violation"}
    # g's classes are the four sets over {p, q}, f's are {} and {q}, and k,
    # which tests nothing, has one
    tested = {"A.g": 0b11, "B.f": 0b10, "B.k": 0}
    assert runs == _shared_runs(csys, cells, domain, tested)


# the permissions each function's own body tests, by program
TESTED = {
    NI_GRID: {"N.safe": 0b1, "N.leak": 0},
    CALLS_AND_NESTED_TESTS: {"A.g": 0b11, "B.f": 0b10, "B.k": 0},
}
SPLITTING = pytest.mark.parametrize("source", list(TESTED), ids=["ni-grid", "calls"])


@SPLITTING
def test_cells_come_observer_major_then_permission_set(source):
    csys = validate_system(parse_system(source))
    L, H = csys.lattice.level("L"), csys.lattice.level("H")
    for observers in (None, (H, L)):
        cells = nitest_system(csys, observers=observers, domain=(0, 1)).cells
        expected = [(qname, o, perms) for qname in csys.fd
                    for o in observers or (L, H) for perms in csys.universe.sets()]
        assert [(c.function, c.observer, c.perms) for c in cells] == expected


@SPLITTING
def test_one_store_live_at_a_time(monkeypatch, source):
    # Each (function, permission class) gets its own store, which its cells
    # use one after another; the next class starts only when they are done.
    # A store has one slot per environment, and the top observer's cell
    # visits them all, so the stores' slots number the runs.
    csys = validate_system(parse_system(source))
    tested = TESTED[source]
    received = []  # (function, permission class, store) per tested cell
    real = nitest._test_cell

    def recording(csys, qname, decl, gamma, perms, *rest):
        received.append((qname, perms & tested[qname], rest[-1]))
        return real(csys, qname, decl, gamma, perms, *rest)
    calls = []
    monkeypatch.setattr(nitest, "_test_cell", recording)
    monkeypatch.setattr(nitest, "exec_cmd", _counting(calls))
    cells = nitest_system(csys, domain=(0, 1, 2), strict=True).cells
    assert len(received) == len(cells)

    stores = []  # (function, class, store) per run of calls with one store
    for qname, cls, store in received:
        if not stores or stores[-1][2] is not store:
            stores.append((qname, cls, store))
    assert len({id(store) for _, _, store in stores}) == len(stores)
    assert len({(qname, cls) for qname, cls, _ in stores}) == len(stores)
    assert {(qname, cls) for qname, cls, _ in stores} == {
        (qname, perms & tested[qname])
        for qname in csys.fd for perms in csys.universe.sets()
    }
    assert sum(len(store) for _, _, store in stores) == len(calls)
