"""The compiled interpreter against the AST walker in ``tests/walker.py``.

On every corpus function, on derandomized ``progen`` systems and on a few
hand-written loops, both must agree on the return value or the exception
type, and on the fuel left over, for every caller permission set over a
small argument grid. On a subset the fuel is swept from 0 to the full cost
of the run, so that each exhaustion boundary is hit.  The batches that the
noninterference harness runs must agree with the walk of each of their
environments, one at a time.
"""

import os
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from permflow import interp, nitest
from permflow.interp import (
    DEFAULT_FUEL,
    Diverged,
    ExecContext,
    Fuel,
    FuelExhausted,
    UnboundVariable,
)
from permflow.nitest import nitest_system
from permflow.parser import parse_system
from permflow.syntax import Assign, BinOp, Block, IntLit, Var
from permflow.system import validate_system

from . import walker
from .conftest import SEED
from .progen import random_checked_system
from .test_nitest_buckets import HIDDEN_LOOP, NI_GRID, _randomly_annotated

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")
I64_MAX = (1 << 63) - 1


def _outcome(module, sys, qname, args, perms, fuel):
    """Run ``qname``'s body with ``module.exec_cmd`` as ``nitest`` does:
    the final environment or the exception type, and the fuel left."""
    decl = sys.fd[qname]
    env = dict(zip(decl.params, args))
    env[decl.ret_var] = 0
    left = Fuel(fuel)
    try:
        if decl.body is not None:
            module.exec_cmd(env, ExecContext(decl.app, perms, left), decl.body, sys)
    except (FuelExhausted, UnboundVariable) as e:
        return type(e), left.remaining
    return env, left.remaining


def _both(sys, qname, args, perms, fuel=DEFAULT_FUEL):
    return (_outcome(interp, sys, qname, args, perms, fuel),
            _outcome(walker, sys, qname, args, perms, fuel))


def _agree_on_grid(csys, grid=(0, 1, 2)) -> int:
    """Compare both on every function, caller permission set and argument
    tuple over ``grid``; return the number of runs compared."""
    runs = 0
    for qname, decl in csys.fd.items():
        for perms in csys.universe.sets():
            for args in product(grid, repeat=len(decl.params)):
                compiled, walked = _both(csys, qname, args, perms)
                assert compiled == walked, (qname, perms, args)
                assert (interp.call_function(csys, qname, args, perms)
                        == walker.call_function(csys, qname, args, perms))
                runs += 1
    return runs


def _sweep_fuel(csys, qname, args, perms) -> None:
    """Every fuel from 0 to the run's full cost gives equal outcomes."""
    compiled, walked = _both(csys, qname, args, perms)
    assert compiled == walked
    result, left = compiled
    cost = DEFAULT_FUEL - left
    for fuel in range(cost + 1):
        compiled, walked = _both(csys, qname, args, perms, fuel)
        assert compiled == walked, (qname, perms, args, fuel)
        # the full cost is the least fuel that finishes, with none left over
        assert compiled == ((result, 0) if fuel == cost else (FuelExhausted, -1))


def _load(name: str):
    with open(os.path.join(PROGRAMS, name), "r", encoding="utf-8") as fh:
        return validate_system(parse_system(fh.read()))


CORPUS = sorted(n for n in os.listdir(PROGRAMS) if n.endswith(".pf"))


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_functions_agree(name):
    assert _agree_on_grid(_load(name), grid=(0, 1, 2, -3)) > 0


def test_generated_systems_agree():
    rnd = random.Random(SEED + 70)
    runs = 0
    for i in range(200):
        csys = random_checked_system(rnd)
        runs += _agree_on_grid(csys)
        if i % 20 == 0:
            for qname, decl in csys.fd.items():
                _sweep_fuel(csys, qname, (1,) * len(decl.params), csys.universe.sets()[-1])
    assert runs > 1000


LOOPS = """lattice { levels L, H; order L < H; }
permissions { p, q }
app A perms {p} {
  const K : L = 3;
  fun count(n : L, h : H) : H {
    init r = 0 in {
      letvar i = 0 in {
        while i < n do {
          test(p) r := r + h * i else r := r - i;
          if i == K then r := r * 2 else r := r + 1;
          i := i + 1
        }
      };
      return r
    }
  }
  fun wide(x : L, y : L) : L {
    init r = 0 in {
      r := x * y;
      if r < 0 then r := r * r - x else r := x + y + r;
      return r
    }
  }
}
app B perms {q} {
  fun outer(n : L) : H {
    init r = 0 in {
      letvar v = 0 in {
        v := call A.count(n, n + 1);
        test(q) r := call A.count(v, 2) else r := v
      };
      return r
    }
  }
}
"""


def test_loops_calls_and_wrapping_agree():
    csys = validate_system(parse_system(LOOPS))
    assert _agree_on_grid(csys, grid=(0, 1, 4, -2)) > 0
    # 64-bit wrapping, at and past both ends; the comparison sees
    # whether the product wrapped
    extremes = (I64_MAX, -I64_MAX - 1, 1 << 62, 3)
    signs = set()
    for x, y in product(extremes, repeat=2):
        compiled, walked = _both(csys, "A.wide", (x, y), 0)
        assert compiled == walked
        r = compiled[0]["r"]
        assert -I64_MAX - 1 <= r <= I64_MAX
        signs.add(r < 0)
    assert signs == {True, False}


@pytest.mark.parametrize("qname, args", [
    ("A.count", (4, 2)), ("B.outer", (3,)), ("A.wide", (I64_MAX, 5)),
])
def test_fuel_sweep_over_loops_and_calls(qname, args):
    csys = validate_system(parse_system(LOOPS))
    for perms in csys.universe.sets():
        _sweep_fuel(csys, qname, args, perms)


def test_while_loop_program_fuel_sweep():
    csys = _load("while_loop.pf")
    for qname, decl in csys.fd.items():
        _sweep_fuel(csys, qname, (3,) * len(decl.params), 0)


# Chains of + and - that mix literals, declared constants, parameters and
# * subterms; near +-2^63 their partial sums overflow. Some literals lie
# past 64 bits, in comparisons too. mix's body is a block of three
# assignments; inc's are a name and a literal, with a * subterm added or
# subtracted.
CHAINS = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {p} {
  const K : L = 9223372036854775807;
  const M : H = 18446744073709551617;
  fun mix(x : L, y : L) : L {
    init r = 0 in {
      r := x + K - 3 + y * 2 - (M - x) + 1;
      r := r - (x - y) + (2 - K) + x * y;
      r := 0 - x - y - M - 1 + r - (y - (x - 4));
      return r
    }
  }
  fun cmp(x : L, y : L) : L {
    init r = 0 in {
      test(p) r := x + y + K else r := y * x + 9223372036854775807;
      if x < 9223372036854775809 then r := r + x + y else r := r - 1;
      if y == 18446744073709551617 then r := r + y + 1 else r := r + K + K;
      return r
    }
  }
  fun inc(x : L, y : L) : L {
    init r = 0 in {
      r := x + 1;
      r := r - y * 3;
      r := r + 2 + x * y;
      return r
    }
  }
}
"""
NEAR_EDGES = (I64_MAX, I64_MAX - 1, -I64_MAX - 1, -I64_MAX, 1 << 62, -3, 0, 1)


def test_chains_agree_near_the_edges():
    csys = validate_system(parse_system(CHAINS))
    assert _agree_on_grid(csys, grid=NEAR_EDGES) == 3 * 2 * len(NEAR_EDGES) ** 2
    for perms in csys.universe.sets():
        _sweep_fuel(csys, "A.mix", (I64_MAX, -3), perms)
        _sweep_fuel(csys, "A.cmp", (0, I64_MAX), perms)


def test_benchmark_ni_grid_systems_agree(workloads):
    # the systems that the ni-grid workload times, at seeds 0-3, and the
    # buckets suite's copy of their shape: every run of the 0..2 grid
    sources = [job.source for seed in range(4)
               for job in workloads.make_pass("ni-grid", seed)]
    sources.append(NI_GRID)
    for shape in ("r := r + a + b", "r := r * a + b", "i < 2"):
        assert any(shape in source for source in sources), shape
    for source in sources:
        csys = validate_system(parse_system(source))
        assert _agree_on_grid(csys) == 2 * 2 * 3 ** 5


def test_unbound_variable_in_assign():
    csys = validate_system(parse_system(LOOPS))
    ghost = Assign("r", Var("ghost"))
    for module in (interp, walker):
        left = Fuel(10)
        with pytest.raises(UnboundVariable):
            module.exec_cmd({}, ExecContext("A", 0, left), ghost, csys)
        assert left.remaining == 8, module  # the command and its one node


X_PLUS_GHOST = BinOp("-", BinOp("+", Var("x"), Var("ghost")), IntLit(1))


@pytest.mark.parametrize("cmd, left", [
    # compiled code charges the command's six units before it reads; the
    # walk stops at the fifth
    (Assign("r", X_PLUS_GHOST), {interp: 4, walker: 5}),
    # one operator over an unbound name and a literal
    (Assign("r", BinOp("+", Var("ghost"), IntLit(1))), {interp: 6, walker: 7}),
    # a block of assignments: its unit, then the first member's six units
    (Block((Assign("r", X_PLUS_GHOST), Assign("s", IntLit(0)))),
     {interp: 3, walker: 4}),
], ids=["assign", "step", "block"])
def test_unbound_variable_in_a_chain(cmd, left):
    csys = validate_system(parse_system(LOOPS))
    for module in (interp, walker):
        fuel = Fuel(10)
        with pytest.raises(UnboundVariable, match="'ghost'"):
            module.exec_cmd({"x": 1}, ExecContext("A", 0, fuel), cmd, csys)
        assert fuel.remaining == left[module], module


def test_compiled_code_lives_with_its_system():
    csys = _load("while_loop.pf")
    assert csys.compiled == {}
    qname = next(iter(csys.fd))
    interp.call_function(csys, qname, [2] * len(csys.fd[qname].params), 0)
    assert csys.compiled
    # not part of equality or repr, and not shared with a copy
    assert _load("while_loop.pf") == csys
    assert "compiled" not in repr(csys)
    assert replace(csys).compiled == {}


def _walk(env, ctx, c, sys, fuel):
    """The walk of one environment: its final environment and the fuel
    left, or ``FuelExhausted`` and -1."""
    left = Fuel(fuel)
    try:
        walker.exec_cmd(env, ExecContext(ctx.app, ctx.caller_perms, left), c, sys)
    except FuelExhausted:
        return FuelExhausted, left.remaining
    return env, left.remaining


def _batches_agree(monkeypatch, csys, seen, **kwargs):
    """Run the NI harness with each batch checked against the walk of its
    environments, one at a time: each final environment and the fuel left,
    or running out of fuel; count in ``seen`` how batches of more than one
    environment ended."""
    real = nitest.exec_cmd

    def checking(env, ctx, c, sys):
        start = ctx.fuel.remaining
        axes = walker.axes_of(env)
        walked = [_walk(one, ctx, c, sys, start) for one in walker.split(env, axes)]
        n = len(walked)
        try:
            real(env, ctx, c, sys)
        except FuelExhausted:
            # environments on one path run out of fuel together
            assert walked == [(FuelExhausted, -1)] * n
            seen["exhausted"] += n > 1
            raise
        except Diverged as err:
            # the condition's column, on the axes of the parameters it reads
            mask = [v != 0 for v in walker.spread(err.cond, axes)]
            assert len(mask) == n and True in mask and False in mask
            seen["diverged"] += 1
            raise
        assert [(one, ctx.fuel.remaining) for one in walker.split(env, axes)] == walked
        seen["finished"] += n > 1
        return env
    with monkeypatch.context() as m:
        m.setattr(nitest, "exec_cmd", checking)
        return nitest_system(csys, **kwargs)


def test_batches_agree_with_the_walk_on_generated_systems(monkeypatch):
    rnd = random.Random(SEED + 71)
    seen = Counter()
    for _ in range(60):
        csys = _randomly_annotated(rnd)
        for fuel in (DEFAULT_FUEL, 12):
            _batches_agree(monkeypatch, csys, seen, domain=(0, 1, 2), fuel=fuel,
                           strict=True)
    assert seen["finished"] and seen["exhausted"] and seen["diverged"], seen


@pytest.mark.parametrize("source", [NI_GRID, HIDDEN_LOOP], ids=["ni-grid", "hidden-loop"])
def test_batches_agree_with_the_walk_over_a_fuel_sweep(monkeypatch, source):
    # fuel 0 to 60 takes both programs' batches from running out at once to
    # finishing; the hidden loop's batches diverge and split
    csys = validate_system(parse_system(source))
    seen = Counter()
    for fuel in range(0, 61):
        report = _batches_agree(monkeypatch, csys, seen, domain=(0, 1, 2),
                                fuel=fuel, strict=True)
        seen[report.cells[-1].verdict] += 1
    assert seen["finished"] and seen["exhausted"], seen
    assert bool(seen["diverged"]) == (source == HIDDEN_LOOP), seen
    # exhausted cells at low fuel, decided ones once the runs fit
    assert seen["inconclusive"] and seen["inconclusive"] < 61, seen


def test_batches_agree_with_the_walk_near_the_edges(monkeypatch):
    # columns whose sums and products leave 64 bits, and comparisons of
    # columns against literals past 64 bits that split the batch; the
    # loops bound by parameters near 2^63 run out of fuel
    seen = Counter()
    for source in (CHAINS, LOOPS):
        csys = validate_system(parse_system(source))
        _batches_agree(monkeypatch, csys, seen, domain=NEAR_EDGES, fuel=500,
                       strict=True)
    assert seen["finished"] and seen["diverged"] and seen["exhausted"], seen


class _CountingEnv(dict):
    """An environment that counts its reads and fails once they pass
    ``limit``, so that work growing with the nesting fails fast."""

    def __init__(self, values, limit):
        super().__init__(values)
        self.reads, self.limit = 0, limit

    def _read(self):
        self.reads += 1
        assert self.reads <= self.limit, "a subterm ran more than once"

    def __getitem__(self, name):
        self._read()
        return super().__getitem__(name)

    def get(self, name, default=None):
        self._read()
        return super().get(name, default)


def _nested(shape, depth):
    e = "h"
    for _ in range(depth - 1):
        e = shape.format(e)
    return e


@pytest.mark.parametrize("shape", [
    "{} * h",  # a product
    "({} == h)", "({} < h)",  # comparisons
    "(x + {} * 1)",  # a name plus a product over a column
    "(x - {} * 1)",  # a name minus a product over a column
    "(h - x - {} * 1)",  # a column name, minus a name and a product
], ids=["mul", "eq", "lt", "step", "chain-called", "chain-named"])
def test_column_code_runs_each_subterm_once(monkeypatch, shape):
    # 30 levels over a hidden column: evaluating a subterm again at each
    # level would make 2^30 calls.  Names may be read twice, once by the
    # int code and once by the column code, but no subterm runs twice.
    expr = _nested(shape, 30)
    source = f"""lattice {{ levels L, H; order L < H; }}
permissions {{ p }}
app A perms {{}} {{
  fun f(x : L, h : H) : L {{ init r = 0 in {{ r := {expr}; return r }} }}
}}
"""
    csys = validate_system(parse_system(source))
    decl = csys.fd["A.f"]
    leaves = expr.count("h") + expr.count("x")
    env = _CountingEnv({"x": 1, "h": interp.Column([0, 1, 2]), "r": 0}, 2 * leaves)
    ctx = ExecContext("A", 0, Fuel(DEFAULT_FUEL))
    axes = walker.axes_of(env)
    walked = [_walk(one, ctx, decl.body, csys, DEFAULT_FUEL)
              for one in walker.split(env, axes)]
    interp.exec_cmd(env, ctx, decl.body, csys)
    assert isinstance(env["r"], interp.Column)
    assert [(one, ctx.fuel.remaining) for one in walker.split(env, axes)] == walked
    # the harness batches such runs too: the H cell, whose window holds all
    # nine environments, runs them as one grid over x and h
    sizes = []
    real = nitest.exec_cmd

    def sizing(env, *rest):
        sizes.append(len(walker.split(env)))
        return real(env, *rest)
    monkeypatch.setattr(nitest, "exec_cmd", sizing)
    report = nitest_system(csys, domain=(0, 1, 2))
    assert sizes == [9] and sum(sizes) == report.runs == 9


BROADCAST = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(x : L, y : L, h : H) : L {
    init r = 0 in { r := (h - x) * (y + h) + (x == y); return r }
  }
}
"""


def test_operators_spread_over_the_union_of_their_axes():
    # x, y and h vary along axes 0, 1 and 2, of sizes 2, 3 and 4, so each
    # operator meets operands on different axes, the higher one first in
    # h - x: its result lies over the union of their axes, in axis order,
    # and each cell, wrapped to 64 bits, agrees with the walk of its
    # environment
    csys = validate_system(parse_system(BROADCAST))
    decl = csys.fd["A.f"]
    env = {"x": interp.Column([5, -7], ((0, 2),)),
           "y": interp.Column([1, 2, 5], ((1, 3),)),
           "h": interp.Column([0, 1, 5, 2**62], ((2, 4),)), "r": 0}
    axes = walker.axes_of(env)
    ctx = ExecContext("A", 0, Fuel(DEFAULT_FUEL))
    walked = [_walk(one, ctx, decl.body, csys, DEFAULT_FUEL)
              for one in walker.split(env, axes)]
    interp.exec_cmd(env, ctx, decl.body, csys)
    assert env["r"].axes == axes == ((0, 2), (1, 3), (2, 4))
    assert [(one, ctx.fuel.remaining) for one in walker.split(env, axes)] == walked
