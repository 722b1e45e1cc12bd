"""Seeded generators for the benchmark's `.pf` systems and their known answers.

Every system is built from a shape whose verdict follows from the
construction alone, so the expected results here never come from permflow:

* a *fan* system chains N inferred functions across two apps.  Each
  ``f_i(x)`` calls ``f_{i-1}(0)`` into a ``letvar`` and then, under k nested
  permission tests, returns a constant of level ``l1`` or ``l2`` when the
  caller holds every tested permission and ``x`` otherwise.  Nothing flows
  into any parameter above ``L``, so the least solution types every
  parameter ``L`` and every return ``{P: level(s_i) if P holds all k
  permissions, else L}``.
* a fan with a planted leak additionally has one inferred function in app
  ``A`` pass a permission-gated ``H`` constant to the annotated
  ``sink(y : L) : L``.  A holds the gating permission, so no typing exists,
  and the planted function owns a constraint of every unsatisfiable core.
* an NI system holds annotated functions with two ``L`` and three ``H``
  parameters and a short ``while`` loop.  The secure one returns ``H`` data
  only to callers holding ``p`` (and its type says so); the planted one
  returns ``L`` but adds a hidden parameter into the result, so every
  observable ``L`` cell has a violation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

DIAMOND = "lattice { levels L, l1, l2, H; order L < l1, L < l2, l1 < H, l2 < H; }"
TWO_POINT = "lattice { levels L, H; order L < H; }"


@dataclass(frozen=True)
class Job:
    """One CLI call: ``permflow <command> <file> <flags>`` and its known answer."""

    name: str
    command: str
    flags: tuple[str, ...]
    source: str
    k: int  # permission count
    exit_code: int
    # infer, satisfiable: qualified name -> (param tables, return table)
    types: dict = field(default_factory=dict)
    # infer, unsatisfiable: the function carrying the planted leak
    planted: str | None = None
    # nitest: qualified name -> function (perm set, observer) -> verdict
    cells: dict = field(default_factory=dict)

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.flags]


# ------------------------------------------------------------------ tables

def perm_sets(perms: list[str]) -> list[tuple[str, ...]]:
    """Every subset of ``perms``, each in universe order."""
    out = []
    for size in range(len(perms) + 1):
        out.extend(combinations(perms, size))
    return out


def fmt_set(names: tuple[str, ...]) -> str:
    return "{" + ",".join(names) + "}"


def _const_table(perms, level):
    return {fmt_set(s): level for s in perm_sets(perms)}


def _gated_table(perms, level):
    """``level`` where every permission is held, ``L`` elsewhere."""
    return {
        fmt_set(s): (level if len(s) == len(perms) else "L")
        for s in perm_sets(perms)
    }


# --------------------------------------------------------------------- fan

def _nested_tests(perms, then_cmd, else_cmd):
    cmd = then_cmd
    for p in reversed(perms):
        cmd = f"test({p}) {{ {cmd} }} else {else_cmd}"
    return cmd


def fan_source(rng: random.Random, k: int, n: int, leak_at: int | None = None):
    """A fan system and, per function, the level its gated constant has.

    Functions alternate between app ``A`` (every permission) and app ``B``
    (the even-indexed ones); ``f_i`` lives in A for even ``i``.
    """
    perms = [f"p{i}" for i in range(k)]
    a_perms = ", ".join(perms)
    b_perms = ", ".join(perms[::2])
    consts = {
        "A": [("ka1", "l1"), ("ka2", "l2")],
        "B": [("kb1", "l1"), ("kb2", "l2")],
    }
    funs = {"A": [], "B": []}
    levels = {}
    for i in range(n):
        app = "A" if i % 2 == 0 else "B"
        cname, level = rng.choice(consts[app])
        levels[f"{app}.f{i}"] = level
        stmts = []
        if i > 0:
            callee_app = "A" if (i - 1) % 2 == 0 else "B"
            stmts.append(f"v := call {callee_app}.f{i - 1}(0)")
        if i == leak_at:
            stmts.append("test(p0) v := sec else v := 0")
            stmts.append("v := call A.sink(v)")
        stmts.append(_nested_tests(perms, f"r := {cname}", "r := x"))
        body = "; ".join(stmts)
        funs[app].append(
            f"  fun f{i}(x) {{\n"
            f"    init r = 0 in {{ letvar v = 0 in {{ {body} }}; return r }}\n"
            f"  }}"
        )
    a_extra = []
    if leak_at is not None:
        a_extra = [
            "  const sec : H = 9;",
            "  fun sink(y : L) : L { init r = 0 in { r := 0; return r } }",
        ]
    lines = [
        DIAMOND,
        f"permissions {{ {', '.join(perms)} }}",
        f"app B perms {{{b_perms}}} {{",
        *(f"  const {c} : {lv} = {rng.randint(1, 99)};" for c, lv in consts["B"]),
        *funs["B"],
        "}",
        f"app A perms {{{a_perms}}} {{",
        *(f"  const {c} : {lv} = {rng.randint(1, 99)};" for c, lv in consts["A"]),
        *a_extra,
        *funs["A"],
        "}",
    ]
    return "\n".join(lines) + "\n", perms, levels


def fan_job(rng, k: int, n: int) -> Job:
    src, perms, levels = fan_source(rng, k, n)
    types = {
        q: ([_const_table(perms, "L")], _gated_table(perms, level))
        for q, level in levels.items()
    }
    return Job(f"fan_k{k}_n{n}", "infer", ("--json",), src, k, 0, types=types)


def leak_job(rng, k: int, n: int) -> Job:
    leak_at = n - 1 if (n - 1) % 2 == 0 else n - 2  # the topmost A function
    src, _, _ = fan_source(rng, k, n, leak_at=leak_at)
    return Job(f"leak_k{k}_n{n}", "infer", ("--json",), src, k, 1,
               planted=f"A.f{leak_at}")


# ---------------------------------------------------------------------- NI

def ni_job(rng, hidden: int) -> Job:
    """One secure and one planted-leak function; see the module docstring."""
    hs = [f"h{i}" for i in range(1, hidden + 1)]
    params = ", ".join(["a : L", "b : L"] + [f"{h} : H" for h in hs])
    op = rng.choice(["+", "*"])
    loop = f"letvar i = 0 in {{ while i < 2 do {{ r := r {op} a + b; i := i + 1 }} }}"
    secret = " + ".join(hs[::-1] if rng.random() < 0.5 else hs)
    secure = (
        f"  fun safe({params}) : {{ {{p}}: H, _: L }} {{\n"
        f"    init r = 0 in {{ {loop}; test(p) r := r + {secret} else r := r + b; return r }}\n"
        "  }"
    )
    leaky = (
        f"  fun leak({params}) : L {{\n"
        f"    init r = 0 in {{ {loop}; r := r + {rng.choice(hs)}; return r }}\n"
        "  }"
    )
    order = [secure, leaky]
    rng.shuffle(order)
    src = "\n".join([
        TWO_POINT, "permissions { p }", "app N perms {p} {", *order, "}",
    ]) + "\n"
    return Job(f"ni_h{hidden}", "nitest", ("--json", "--domain", "0..2"), src, 1, 1,
               cells={"N.safe": _safe_cell, "N.leak": _leak_cell})


def _safe_cell(perms: str, observer: str) -> str:
    # The return type is H for callers holding p, so L cannot observe it.
    return "skipped" if (perms == "{p}" and observer == "L") else "ok"


def _leak_cell(perms: str, observer: str) -> str:
    return "violation" if observer == "L" else "ok"


# --------------------------------------------------------------- workloads

# One shape per workload and scale: (k, N) for the fan workloads, the
# number of hidden parameters for ni-grid.  A pass is PASS_JOBS systems of
# that shape; the seed picks names, levels and constants, never a size, so
# every seed asks for the same work.
SHAPES = {
    "infer-wide": {"full": (2, 120), "smoke": (2, 8)},
    "infer-perms": {"full": (4, 10), "smoke": (3, 3)},
    "unsat-core": {"full": (2, 40), "smoke": (2, 8)},
    "ni-grid": {"full": 3, "smoke": 1},
}
PASS_JOBS = 4

WORKLOADS = tuple(SHAPES)


def make_pass(workload: str, seed: int, scale: str = "full") -> list[Job]:
    """One pass of jobs for ``workload``; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    shape = SHAPES[workload][scale]
    jobs = []
    for _ in range(PASS_JOBS):
        if workload == "ni-grid":
            jobs.append(ni_job(rng, shape))
        elif workload == "unsat-core":
            jobs.append(leak_job(rng, *shape))
        else:
            jobs.append(fan_job(rng, *shape))
    return jobs
