"""Inference on shapes whose cost once grew exponentially, against known answers.

The symbolic pipeline needed over 100 s for the 100-function call chain
and over 60 s for the k=8 fan; the worklist solver takes well under a
second on both. Generation once copied every callee's constraints into its
callers, which took the 1,280-function fan about 20 s; each function's own
constraints take it under 2 s. Minimising the unsat core of a 160-function
fan with a planted leak once reran the fixpoint per constraint, 5-8 s;
the search inside the cone of the ground right sides takes well under a
second. A secret that flows through a chain of N calls into an L sink has
a core of N+2 constraints; a bisection over every constraint took 2.6 s at
N=160, and the reruns of the search inside the cone are pinned. The time
bounds are generous, so
only a return to exponential or quadratic behaviour fails them. The work
after ``solve`` is bounded by a ratio of two timings instead: it once
scanned the solver's whole output for each function. The compiled
interpreter is held to a speed ratio over the AST walker it replaced.
"""

import gc
import math
import statistics
import time

import pytest

from permflow import nitest, solver
from permflow.basetypes import BaseType, embed
from permflow.constraints import gen_constraints
from permflow.inference import InferUnsat, infer_system
from permflow.interp import Column
from permflow.parser import parse_system
from permflow.system import validate_system

from . import walker
from .test_nitest_buckets import NI_GRID

DIAMOND = "lattice { levels L, l1, l2, H; order L < l1, L < l2, l1 < H, l2 < H; }"
BOUND_S = 10.0


def _infer_timed(src: str):
    t0 = time.perf_counter()
    csys = validate_system(parse_system(src))
    result = infer_system(csys)
    return csys, result, time.perf_counter() - t0


def chain_source(n: int) -> str:
    """f_i(x) returns call f_{i-1}(x); f0 adds an H constant under test(p)."""
    funs = ["  fun f0(x) { init r = 0 in { test(p) r := x + S else r := x; return r } }"]
    funs += [
        f"  fun f{i}(x) {{ init r = 0 in {{ r := call A.f{i - 1}(x); return r }} }}"
        for i in range(1, n)
    ]
    return "\n".join([
        "lattice { levels L, H; order L < H; }",
        "permissions { p }",
        "app A perms {p} {",
        "  const S : H = 5;",
        *funs,
        "}",
    ]) + "\n"


def chain_leak_source(n: int) -> str:
    """f0 returns an H constant, f_i returns call f_{i-1}(x), and top passes
    f_{n-1}'s result to the annotated ``A.sink(y : L)``: no typing exists."""
    funs = ["  fun f0(x) { init r = 0 in { r := S; return r } }"]
    funs += [
        f"  fun f{i}(x) {{ init r = 0 in {{ r := call A.f{i - 1}(x); return r }} }}"
        for i in range(1, n)
    ]
    return "\n".join([
        "lattice { levels L, H; order L < H; }",
        "permissions { p }",
        "app A perms {p} {",
        "  const S : H = 5;",
        "  fun sink(y : L) : L { init r = 0 in { r := y; return r } }",
        *funs,
        f"  fun top(x) {{ init r = 0 in {{ letvar y = 0 in {{ y := call A.f{n - 1}(x); "
        "r := call A.sink(y) }; return r } }",
        "}",
    ]) + "\n"


def fan_source(k: int, n: int, leak_at: int | None = None) -> str:
    """N functions alternating between app A (all k permissions) and app B
    (the even-indexed ones); f_i calls f_{i-1}(0) into a letvar and returns
    its app's constant under k nested tests, its parameter otherwise.

    ``f_{leak_at}``, an A function, also passes an H constant to the
    annotated ``A.sink(y : L)`` where p0 is held; A holds p0, so no typing
    exists."""
    perms = [f"p{i}" for i in range(k)]
    apps = {"A": [], "B": []}
    for i in range(n):
        app = "A" if i % 2 == 0 else "B"
        stmts = []
        if i > 0:
            stmts.append(f"v := call {'A' if (i - 1) % 2 == 0 else 'B'}.f{i - 1}(0)")
        if i == leak_at:
            stmts += ["test(p0) v := sec else v := 0", "v := call A.sink(v)"]
        cmd = f"r := {app.lower()}{1 if i % 4 < 2 else 2}"
        for p in reversed(perms):
            cmd = f"test({p}) {{ {cmd} }} else r := x"
        stmts.append(cmd)
        apps[app].append(
            f"  fun f{i}(x) {{ init r = 0 in {{ letvar v = 0 in {{ {'; '.join(stmts)} }}; "
            f"return r }} }}"
        )
    if leak_at is not None:
        apps["A"] += ["  const sec : H = 9;",
                      "  fun sink(y : L) : L { init r = 0 in { r := 0; return r } }"]
    lines = [DIAMOND, f"permissions {{ {', '.join(perms)} }}"]
    for app, held in (("B", perms[::2]), ("A", perms)):
        lines += [f"app {app} perms {{{', '.join(held)}}} {{",
                  f"  const {app.lower()}1 : l1 = 1;", f"  const {app.lower()}2 : l2 = 2;",
                  *apps[app], "}"]
    return "\n".join(lines) + "\n"


def test_unannotated_call_chain_of_100():
    csys, result, elapsed = _infer_timed(chain_source(100))
    lat = csys.lattice
    L, H = lat.level("L"), lat.level("H")
    types = result.types()
    # f0 returns H to callers holding p; every caller holds p, so from f1 on
    # the chain returns H everywhere. Nothing flows into a parameter.
    assert types["A.f0"].ret == BaseType(lat, 1, (L, H))
    for i in range(1, 100):
        assert types[f"A.f{i}"].ret == embed(H, lat, 1)
    for ft in types.values():
        assert ft.params == (embed(L, lat, 1),)
    assert elapsed < BOUND_S, f"{elapsed:.1f} s"


@pytest.mark.parametrize("k, n", [(8, 10), (2, 1280)], ids=["k8-n10", "k2-n1280"])
def test_fan(k, n):
    csys, result, elapsed = _infer_timed(fan_source(k, n))
    lat = csys.lattice
    full = (1 << k) - 1
    types = result.types()
    assert len(types) == n
    for i in range(n):
        ft = types[f"{'A' if i % 2 == 0 else 'B'}.f{i}"]
        # the constant reaches only callers holding every tested permission
        level = lat.level("l1" if i % 4 < 2 else "l2")
        want = tuple(level if pset == full else lat.level("L") for pset in range(1 << k))
        assert ft.ret == BaseType(lat, k, want)
        assert ft.params == (embed(lat.level("L"), lat, k),)
    assert elapsed < BOUND_S, f"{elapsed:.1f} s"


def _count_verdicts(monkeypatch) -> list:
    calls = []
    real = solver.refutation

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(solver, "refutation", counting)
    return calls


@pytest.mark.parametrize("n", [40, 160], ids=["n40", "n160"])
def test_planted_leak_core(n, monkeypatch):
    # One verdict for the solve, then at most ceil(log2(m + 1)) + 1 reruns
    # per core constraint, for m constraints: the bound of a bisection over
    # all of them, which the search inside the cone stays under. The
    # one-at-a-time deletion loop made one rerun per constraint: 242 runs at
    # N=40 and 962 at N=160. The cone is the same 10 constraints at every
    # N: the sink's body; the leaking function's 4 writes of its letvar and
    # its two call-args; and the 3 writes of the result of the function it
    # calls.
    calls = _count_verdicts(monkeypatch)
    leak_at = n - 2  # the topmost A function
    csys = validate_system(parse_system(fan_source(2, n, leak_at)))
    constraints = gen_constraints(csys).all_constraints()
    m = len(constraints)
    assert len(solver._cone(constraints)) == 10
    t0 = time.perf_counter()
    with pytest.raises(InferUnsat) as info:
        infer_system(csys)
    elapsed = time.perf_counter() - t0
    assert info.value.functions == [f"A.f{leak_at}"]
    core = len(info.value.core)
    assert len(calls) <= 1 + core * (math.ceil(math.log2(m + 1)) + 1), (len(calls), core, m)
    assert elapsed < BOUND_S, f"{elapsed:.1f} s"


@pytest.mark.parametrize("n, constraints, runs", [(40, 85, 86), (160, 325, 326),
                                                  (320, 645, 646)],
                         ids=["n40", "n160", "n320"])
def test_chain_leak_core(n, constraints, runs, monkeypatch):
    # The core is the whole path: the H constant, each of the n call-ret
    # constraints and the sink's call-arg. The cone adds two constraints
    # to that path, the sink's own assignment and top's letvar initializer.
    # Each core member lies next to the previous one in the cone, so the
    # search makes about two verdict runs per member: one probe just past
    # it, and one on the kept members alone. A bisection over all the
    # constraints made 253 runs at N=40 and 1,275 at N=160.
    calls = _count_verdicts(monkeypatch)
    csys = validate_system(parse_system(chain_leak_source(n)))
    assert len(gen_constraints(csys).all_constraints()) == constraints
    t0 = time.perf_counter()
    with pytest.raises(InferUnsat) as info:
        infer_system(csys)
    elapsed = time.perf_counter() - t0
    assert info.value.functions == [f"A.f{i}" for i in range(n)] + ["A.top"]
    assert len(info.value.core) == n + 2
    assert len(calls) == runs
    assert elapsed < BOUND_S, f"{elapsed:.1f} s"


def test_work_after_solve_is_linear_in_n():
    # The post-solve pass is infer_system's wall time less its generate and
    # solve stages: everything it does per function after solve. 8x the
    # functions take 8x the time if that work is linear and 64x if it is
    # quadratic; a scan of the solver's whole output per function made it
    # 30-55x, against 6-15x without. Each round pairs a median of small
    # runs with one large run; the median round counts, so one slow moment
    # of the host does not.
    def post_solve_s(csys):
        t0 = time.perf_counter()
        stages = infer_system(csys).stage_timings
        return time.perf_counter() - t0 - stages["generate"] - stages["solve"]

    small = validate_system(parse_system(fan_source(2, 160)))
    large = validate_system(parse_system(fan_source(2, 1280)))
    ratios = []
    gc.disable()
    try:
        for _ in range(3):
            t_small = statistics.median(post_solve_s(small) for _ in range(5))
            ratios.append(post_solve_s(large) / t_small)
    finally:
        gc.enable()
    assert statistics.median(ratios) < 20, ratios


def test_compiled_interpreter_outruns_the_walker(monkeypatch):
    # nitest on the ni-grid shape, harness included, with the compiled
    # interpreter running each batch at once, and then with the AST walker
    # running the batch's environments one at a time. Each round times both
    # back to back and the median round counts. With the walker on both
    # sides the ratio is 1.
    csys = validate_system(parse_system(NI_GRID))

    def walked(env, ctx, c, sys):
        # NI_GRID's runs finish and never diverge, so each batch's
        # environments follow one path and use the same fuel
        start = ctx.fuel.remaining
        axes = walker.axes_of(env)
        envs = walker.split(env, axes)
        for one in envs:
            ctx.fuel.remaining = start
            walker.exec_cmd(one, ctx, c, sys)
        # each name a column over the whole grid, as a batch's result may be
        env.update((name, Column((one[name] for one in envs), axes)) for name in env)
        return env

    def nitest_s():
        t0 = time.perf_counter()
        nitest.nitest_system(csys, domain=range(0, 3))
        return time.perf_counter() - t0

    ratios = []
    gc.disable()
    try:
        for _ in range(5):
            compiled = nitest_s()
            with monkeypatch.context() as m:
                m.setattr(nitest, "exec_cmd", walked)
                walking = nitest_s()
            ratios.append(walking / compiled)
    finally:
        gc.enable()
    assert statistics.median(ratios) >= 1.8, ratios
