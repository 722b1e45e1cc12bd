"""The bucketed NI harness against its pairwise reference and against the
interpreter's calls, and its cost.

``nitest._test_cell`` decides a cell bucket by bucket, over environments of
equal observable parts, from a store that the cells of its permission
class share: a bucket's environments that no cell of the class ran yet run
as one batch before the bucket is read; ``tests/pairwise.py`` runs
both sides of every pair.  Both must give field-for-field equal cells:
verdicts, pair counts, fuel notes and witnesses, down to the key order of
the witness environments.  ``NIReport.runs`` counts the (permission class,
environment) runs, batched or not.
"""

import random
from collections import Counter
from dataclasses import replace
from itertools import islice, product
from math import prod

import pytest

from permflow import interp, nitest
from permflow.basetypes import BaseType, FunctionType
from permflow.interp import DEFAULT_FUEL, FuelExhausted, call_function
from permflow.nitest import nitest_system
from permflow.parser import parse_system
from permflow.system import validate_system

from .conftest import SEED
from .pairwise import pairwise_cell
from .progen import _Gen
from .walker import axes_of, split, spread


def _batches(monkeypatch, sizes):
    """Patch ``nitest.exec_cmd`` to append the size of each batch it runs."""
    real = nitest.exec_cmd

    def sizing(env, *rest):
        sizes.append(len(split(env)))
        return real(env, *rest)
    monkeypatch.setattr(nitest, "exec_cmd", sizing)


def _bucketed_matching_pairwise(monkeypatch, csys, **kwargs):
    """The harness's cells, checked against the pairwise reference's, and
    the number of runs the harness made."""
    report = nitest_system(csys, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(nitest, "_test_cell", pairwise_cell)
        reference = nitest_system(csys, **kwargs).cells
    # reprs show the key order of the witness environments too
    assert [repr(c) for c in report.cells] == [repr(c) for c in reference]
    return report.cells, report.runs


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
    # call on those arguments returns, or both run out of fuel.  A batch
    # that finishes or runs out of fuel records each of its environments;
    # one that diverges is rerun in parts, which record them.
    runs = []  # (function, arguments, permissions, fuel, output or None)
    real = nitest.exec_cmd
    batched = 0  # batches of more than one environment

    def recording(env, ctx, c, csys):
        nonlocal batched
        decl = next(d for d in csys.fd.values()
                    if d.body is c and d.app == ctx.app
                    and env.keys() == {*d.params, d.ret_var})
        assert env[decl.ret_var] == 0
        axes = axes_of(env)
        calls = [(decl.qualified, [one[name] for name in decl.params],
                  ctx.caller_perms, ctx.fuel.remaining) for one in split(env, axes)]
        batched += len(calls) > 1
        try:
            real(env, ctx, c, csys)
        except FuelExhausted:
            runs.extend((*call, None) for call in calls)
            raise
        outs = spread(env[decl.ret_var], axes)
        runs.extend((*call, out) for call, out in zip(calls, outs, strict=True))
        return env
    monkeypatch.setattr(nitest, "exec_cmd", recording)
    rnd = random.Random(SEED + 50 + len(domain))
    exhausted = 0
    for _ in range(40):
        csys = _randomly_annotated(rnd)
        for fuel in (DEFAULT_FUEL, 12):
            runs.clear()
            report = nitest_system(csys, domain=domain, fuel=fuel, strict=True)
            # a batch that diverges records nothing: its parts record its
            # environments, so each (class, environment) is recorded once
            assert runs and len(runs) == report.runs
            for qname, args, perms, start, out in runs:
                assert start == fuel
                try:
                    expected = call_function(csys, qname, args, perms, fuel)
                except FuelExhausted:
                    expected = None
                    exhausted += 1
                assert out == expected, (qname, args, perms, fuel)
    assert exhausted  # the fuel bound was reached, on both sides
    assert batched


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


# Batches that diverge.  A grid splits by the parameters that the
# condition which diverged reads: one part per valuation of them, fixed as
# ints, and a part that diverges again runs one environment at a time.
# When that would make more parts than a part holds, as when the condition
# reads every axis of the grid, the grid splits in two by the condition's
# values instead, as a flat batch splits.  The test of ``h == i`` in a
# counted loop would split off one environment per iteration if parts
# split without end.
COUNT_TO_N = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(n : H) : L {
    init r = 0 in { letvar i = 0 in { while i < n do { i := i + 1 } }; return r }
  }
}
"""
SPLIT_EACH_STEP = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun same(x : L, h : H) : L {
    init r = 0 in {
      letvar i = 0 in {
        while i < 8 do { if h == i then r := r + x else r := r + x; i := i + 1 }
      };
      return r
    }
  }
  fun leak(x : L, h : H) : L {
    init r = 0 in {
      letvar i = 0 in {
        while i < 8 do { if h == i then r := r + x else r := r; i := i + 1 }
      };
      return r
    }
  }
}
"""


def test_a_long_hidden_loop_splits_without_recursion(monkeypatch):
    # 1,500 environments in the H cell's one window, a grid over n alone:
    # it splits off n = 0 at the first check and the rest at the second, so
    # the rest run one at a time
    csys = validate_system(parse_system(COUNT_TO_N))
    sizes = []
    _batches(monkeypatch, sizes)
    report = nitest_system(csys, domain=range(0, 1500), pair_cap=10**7)
    assert [c.verdict for c in report.cells] == ["ok"] * 4
    assert report.runs == 1500
    assert sizes[:3] == [1500, 1499, 1] and sizes[3:] == [1] * 1499


def test_splitting_costs_at_most_three_runs_per_environment(monkeypatch):
    csys = validate_system(parse_system(SPLIT_EACH_STEP))
    L, H = csys.lattice.level("L"), csys.lattice.level("H")
    expected = {
        # per function, the H cell's grid over x and h splits by h, which
        # ``h == i`` reads, into ten parts of ten over x, which run whole
        (L, H): ([100] + [10] * 10) * 2,
        # the L cells' grids over h alone, one per bucket, split in two, and
        # the part that splits again runs singly: same's ten buckets and
        # leak's first two
        (L,): ([10, 1, 9] + [1] * 9) * 12,
    }
    for observers, shape in expected.items():
        sizes = []
        with monkeypatch.context() as m:
            _batches(m, sizes)
            cells, runs = _bucketed_matching_pairwise(
                monkeypatch, csys, observers=observers, domain=range(0, 10))
        assert {c.verdict for c in cells} == {"ok", "violation"}
        # each environment: its batch, its part of the batch, and one run
        assert runs < sum(sizes) <= 3 * runs
        assert sizes == shape


# h1 == 0 splits the grid over (x, h1, h2) by h1 into three parts of nine;
# h2 == 0 then splits the h1 = 0 part again, so its environments run singly.
SPLIT_TWICE = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(x : L, h1 : H, h2 : H) : L {
    init r = 0 in {
      if h1 == 0 then { if h2 == 0 then r := x else r := x + 0 } else r := x;
      return r
    }
  }
}
"""


def test_a_part_that_diverges_again_runs_one_environment_at_a_time(monkeypatch):
    csys = validate_system(parse_system(SPLIT_TWICE))
    sizes = []
    with monkeypatch.context() as m:
        _batches(m, sizes)
        cells, runs = _bucketed_matching_pairwise(monkeypatch, csys, domain=range(0, 3))
    assert {c.verdict for c in cells} == {"ok"} and runs == 27
    assert sizes == [27, 9, 9, 9] + [1] * 9


# Loops bound by an observable parameter, and by its sum with a hidden one.
COUNTED_LOOPS = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun below(x : L, n : L, h : H) : L {
    init r = 0 in {
      letvar i = 0 in { while i < n do { r := r + x; i := i + 1 } };
      return r
    }
  }
  fun below_sum(x : L, n : L, h : H) : L {
    init r = 0 in {
      letvar i = 0 in { while i < n + h do { i := i + 1 } };
      r := r + x * n;
      return r
    }
  }
}
"""


def test_a_loop_splits_by_the_parameters_it_reads(monkeypatch):
    # The H cell's window is the whole 10^3 grid.  ``i < n`` reads n alone
    # and splits it into 10 parts of 100, none of which diverges again.
    # ``i < n + h`` reads n and h, which would make 100 parts of 10, so it
    # splits in two: n + h = 0, and the rest, which diverges again and runs
    # singly.  Flat batches, one per L bucket of ten, made 100 and 1,200.
    csys = validate_system(parse_system(COUNTED_LOOPS))
    bodies = {decl.body: qname for qname, decl in csys.fd.items()}
    batches = Counter()
    real = nitest.exec_cmd

    def counting(env, ctx, c, sys):
        batches[bodies[c]] += 1
        return real(env, ctx, c, sys)
    with monkeypatch.context() as m:
        m.setattr(nitest, "exec_cmd", counting)
        cells, runs = _bucketed_matching_pairwise(monkeypatch, csys, domain=range(0, 10))
    assert {c.verdict for c in cells} == {"ok"} and runs == 2000
    assert batches == {"A.below": 11, "A.below_sum": 993}


PRODUCT = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(a : L, b : L) : L { init r = 0 in { r := a * b; return r } }
}
"""
SUCCESSOR = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun g(a : L) : L { init r = 0 in { r := a + 1; return r } }
}
"""


@pytest.mark.parametrize("source, d, expected", [
    # 70^2 exceeds the 4,096 valuations a window may span, so each window
    # varies b alone; 5,000 exceeds it too, but a window spans the domain
    (PRODUCT, 70, [70] * 70), (SUCCESSOR, 5000, [5000]),
], ids=["product", "successor"])
def test_buckets_of_one_run_in_bounded_batches(monkeypatch, source, d, expected):
    # every parameter is observable, so each bucket holds one environment
    csys = validate_system(parse_system(source))
    sizes = []
    with monkeypatch.context() as m:
        _batches(m, sizes)
        _, runs = _bucketed_matching_pairwise(monkeypatch, csys, domain=range(0, d),
                                              pair_cap=10**7)
    assert sizes == expected and runs == sum(expected)


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
    # observers share one store: each environment runs once in all, in the
    # one grid of the H cell, whose window holds all 3^5 of them.
    csys = validate_system(parse_system(WIDE))
    sizes = []
    _batches(monkeypatch, sizes)
    L = csys.lattice.level("L")
    domain = (0, 1, 2)
    report = nitest_system(csys, domain=domain)
    cells = report.cells
    assert len(cells) == 4 and all(c.verdict == "ok" for c in cells)
    d = len(domain)
    assert report.runs == d ** 5 == 243
    assert sizes == [d ** 5]
    cell = next(c for c in cells if c.perms == 0 and c.observer == L)
    obs, hidden = 2, 3  # a, b; h1, h2, h3
    assert cell.pairs_tested == d ** obs * d ** (2 * hidden)

    # one observer's cells share across permission sets too
    report = nitest_system(csys, observers=(L,), domain=domain)
    assert [c.verdict for c in report.cells] == ["ok", "ok"]
    assert report.runs == 243


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
    # One run per (permission class, environment) that the cells visit:
    # N.safe tests p, so its P={} and P={p} cells do not share.
    csys = validate_system(parse_system(NI_GRID))
    sizes = []
    _batches(monkeypatch, sizes)
    domain = range(0, 3)
    report = nitest_system(csys, domain=domain)
    cells = report.cells
    assert {c.verdict for c in cells} == {"ok", "violation", "skipped"}
    tested = {"N.safe": 0b1, "N.leak": 0}
    assert report.runs == _shared_runs(csys, cells, domain, tested) == 729
    # without the stores, every cell would run all it visits itself
    assert _unshared_runs(csys, cells, domain) == 1223
    # each permission class's H cell, with no hidden parameter, comes first
    # and runs its 3^5 environments as one grid: N.safe's two classes and
    # N.leak's one; the L cells read the store
    assert sizes == [243, 243, 243]
    assert sum(sizes) == report.runs


def test_leak_columns_vary_only_along_what_they_read(monkeypatch):
    # N.leak's values depend on a, b and h2 at most, so no operator column
    # that it builds holds more than 3^3 values; flat columns would hold a
    # batch's 216 or 243
    csys = validate_system(parse_system(NI_GRID))
    leak = csys.fd["N.leak"].body
    running, widths = [], []
    real_run, real_lift = nitest.exec_cmd, interp._lift

    def tracking(env, ctx, c, sys):
        running.append(c is leak)
        return real_run(env, ctx, c, sys)

    def lifting(op, x, y):
        values, axes = real_lift(op, x, y)
        if running[-1]:
            widths.append(prod(size for _, size in axes))
        return values, axes
    with monkeypatch.context() as m:
        m.setattr(nitest, "exec_cmd", tracking)
        m.setattr(interp, "_lift", lifting)
        _bucketed_matching_pairwise(monkeypatch, csys, domain=range(0, 3))
    assert max(widths) == 27


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
    monkeypatch.setattr(nitest, "_test_cell", recording)
    report = nitest_system(csys, domain=(0, 1, 2), strict=True)
    assert len(received) == len(report.cells)

    stores = []  # (function, class, store) per run of cells with one store
    for qname, cls, store in received:
        if not stores or stores[-1][2] is not store:
            stores.append((qname, cls, store))
    assert len({id(store) for _, _, store in stores}) == len(stores)
    assert len({(qname, cls) for qname, cls, _ in stores}) == len(stores)
    assert {(qname, cls) for qname, cls, _ in stores} == {
        (qname, perms & tested[qname])
        for qname in csys.fd for perms in csys.universe.sets()
    }
    assert sum(len(store) for _, _, store in stores) == report.runs
