"""A catalogue of mutants of ``src/permflow``, each with the tests that kill it.

A mutant replaces one exact snippet of a package module, and names the
test node IDs that must fail once it does (DeMillo, Lipton & Sayward,
"Hints on Test Data Selection", IEEE Computer 1978; Jia & Harman, "An
Analysis and Survey of the Development of Mutation Testing", TSE 2011).
``tests/test_mutants.py`` checks that each snippet occurs exactly once in
its module, so an edit to an anchored line must re-anchor the mutant and
run it again.  The runner copies the checkout to a temporary directory,
applies one mutant at a time, runs its killers there with
``sys.executable -m pytest`` and prints the kill matrix:

    PERMFLOW_MUTANTS=1 python -m tests.mutants [NAME ...]

It exits 1 when a named killer passes on its mutant.  A surviving mutant is
reported, never deleted to get a clean run; an equivalent one is removed
only with its reason recorded.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src", "permflow")
# what the copy of the checkout leaves out
UNCOPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "results")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # a module of src/permflow
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # test node IDs, from the repository root


MUTANTS = (
    # the trace rules and the solver
    Mutant(
        "test-without-trace", "constraints.py",
        "            return tmerge(p, cmd(gamma, trace.append(p, True), c.then),\n"
        "                          cmd(gamma, trace.append(p, False), c.els))\n",
        "            return tmerge(p, cmd(gamma, trace, c.then),\n"
        "                          cmd(gamma, trace, c.els))\n",
        ("tests/test_acceptance.py::test_criterion_3_contact_policy",
         "tests/test_equivalence.py::test_trace_rules_match_declarative_search"),
    ),
    Mutant(
        "reads-merge-then", "solver.py",
        "        branch = term.then if pset >> term.perm & 1 else term.els\n"
        "        return _reads(branch, pset, forbid)\n",
        "        return _reads(term.then, pset, forbid)\n",
        ("tests/test_acceptance.py::test_criterion_6_solver_differential",
         "tests/test_differential.py::test_differential_smoke"),
    ),
    Mutant(
        "block-effect-last-member", "constraints.py",
        "            terms = list(dict.fromkeys(cmd(gamma, trace, m) for m in c.cmds))\n",
        "            terms = [[cmd(gamma, trace, m) for m in c.cmds][-1]]\n",
        # only the pinned outputs kill it
        ("tests/test_constraints.py::test_generation_is_pinned_on_the_corpus",
         "tests/test_golden_cli.py::test_corpus_cli_output_unchanged"),
    ),
    Mutant(
        "if-effect-without-else", "constraints.py",
        "            t = tmeet(cmd(gamma, trace, c.then), cmd(gamma, trace, c.els))\n",
        "            t = [cmd(gamma, trace, c.then), cmd(gamma, trace, c.els)][0]\n",
        ("tests/test_equivalence.py::test_trace_rules_match_declarative_search",
         "tests/test_soundness.py::test_micro_family_accepted_only_if_noninterferent"),
    ),
    Mutant(
        "call-return-unprojected", "constraints.py",
        "            out.append(Constraint(trace, tproj(sig.ret, theta_app), gamma[c.name],\n",
        "            out.append(Constraint(trace, sig.ret, gamma[c.name],\n",
        ("tests/test_acceptance.py::test_criterion_5_noninterference_grid",
         "tests/test_joint_inference.py::test_inferred_corpus_types_check"),
    ),
    Mutant(
        "meet-for-merge", "constraints.py",
        "        return TGround(merge(perm, a.type, b.type))\n"
        "    return TMerge(perm, a, b)\n",
        "        return TGround(a.type.meet(b.type))\n"
        "    return TMeet(a, b)\n",
        ("tests/test_merge_rule.py::test_guard_over_test_family_pins_the_merge_rule",
         "tests/test_merge_rule.py::test_merge_rule_accepts_a_test_under_a_guard"),
    ),
    # dead code that the import checks find
    Mutant(
        "unused-function", "interp.py",
        "DEFAULT_FUEL = 10**6\n",
        "DEFAULT_FUEL = 10**6\n\n\ndef default_fuel():\n    return DEFAULT_FUEL\n",
        ("tests/test_imports.py::test_every_public_name_is_loaded_outside_tests",),
    ),
    Mutant(
        "method-that-only-calls-itself", "interp.py",
        "    __slots__ = (\"remaining\",)\n",
        "    __slots__ = (\"remaining\",)\n\n    def spend(self, n):\n"
        "        return self.spend(n - 1) if n else self\n",
        ("tests/test_imports.py::test_every_public_name_is_loaded_outside_tests",),
    ),
    # the interpreter's 64-bit arithmetic and fuel
    Mutant(
        "arith-unwrapped", "interp.py",
        "            return v if _I64_MIN <= v <= _I64_MAX else _wrap(v)\n",
        "            return v\n",
        ("tests/test_compiled_interp.py::test_batches_agree_with_the_walk_near_the_edges",),
    ),
    Mutant(
        "wrap-without-sign", "interp.py",
        "    return v - _U64 if v > _I64_MAX else v\n",
        "    return v\n",
        ("tests/test_compiled_interp.py::test_batches_agree_with_the_walk_near_the_edges",),
    ),
    Mutant(
        "block-charge-one-short", "interp.py",
        "        def block(env, ctx):\n"
        "            fuel = ctx.fuel\n"
        "            left = fuel.remaining - 1\n",
        "        def block(env, ctx):\n"
        "            fuel = ctx.fuel\n"
        "            left = fuel.remaining - 0\n",
        ("tests/test_compiled_interp.py::test_batches_agree_with_the_walk_over_a_fuel_sweep[ni-grid]",),
    ),
    # the NI harness's store and cell decision
    Mutant(
        "no-fuel-reset-between-runs", "nitest.py",
        "    ctx.fuel.remaining = fuel\n",
        "",
        ("tests/test_nitest_buckets.py::test_harness_runs_are_calls[0..2]",),
    ),
    Mutant(
        "no-store-write-back", "nitest.py",
        "            outs[r + k] = store[slots[r + k]] = out\n",
        "            outs[r + k] = out\n",
        ("tests/test_nitest_buckets.py::test_one_interpreter_call_per_predicted_run",),
    ),
    Mutant(
        "pairs-tested-one-short", "nitest.py",
        "                    qname, perms, observer, (r + i) * m + j + 1, \"violation\",\n",
        "                    qname, perms, observer, (r + i) * m + j, \"violation\",\n",
        ("tests/test_nitest_buckets.py::test_generated_systems_match_pairwise[0..2]",),
    ),
    Mutant(
        "decision-ignores-exhausted-runs", "nitest.py",
        "            if row.count(row[i]) + exhausted < m:  # a finished run differs from i's\n",
        "            if row.count(row[i]) < m:\n",
        ("tests/test_nitest_buckets.py::test_fuel_sweep_on_hidden_loop_matches_pairwise",),
    ),
    Mutant(
        "fuel-note-miscounted", "nitest.py",
        "            inconclusive += m * m - (m - exhausted) ** 2\n",
        "            inconclusive += exhausted * exhausted\n",
        # the two counts differ only in a bucket exhausted in part, which the
        # hidden loop's fuel sweep never decides as inconclusive
        ("tests/test_nitest_buckets.py::test_generated_systems_match_pairwise[0..2]",
         "tests/test_nitest_buckets.py::test_generated_systems_match_pairwise[0..1-bottom]"),
    ),
    # grid batches in the interpreter and the NI harness
    Mutant(
        "spread-stride-column-major", "interp.py",
        "    for axis, size in reversed(src):\n",
        "    for axis, size in src:\n",
        ("tests/test_compiled_interp.py::test_operators_spread_over_the_union_of_their_axes",
         "tests/test_compiled_interp.py::test_batches_agree_with_the_walk_over_a_fuel_sweep[ni-grid]"),
    ),
    Mutant(
        "axis-union-unsorted", "interp.py",
        "    axes = tuple(sorted({*x.axes, *y.axes}))\n",
        "    axes = tuple(dict.fromkeys((*x.axes, *y.axes)))\n",
        ("tests/test_compiled_interp.py::test_operators_spread_over_the_union_of_their_axes",),
    ),
    Mutant(
        "split-by-leading-axes", "nitest.py",
        "        for k, cell in zip(numbers, spread(Column(range(len(cond)), cond.axes),"
        " axes)):\n",
        "        for k, cell in zip(numbers, spread(Column(range(len(cond)),"
        " axes[:len(cond.axes)]), axes)):\n",
        ("tests/test_nitest_buckets.py::test_splitting_costs_at_most_three_runs_per_environment",
         "tests/test_nitest_buckets.py::"
         "test_a_part_that_diverges_again_runs_one_environment_at_a_time"),
    ),
    Mutant(
        "split-by-parts-however-many", "nitest.py",
        "    if len(cond) ** 2 > len(numbers):\n",
        "    if False:\n",
        ("tests/test_nitest_buckets.py::test_a_long_hidden_loop_splits_without_recursion",
         "tests/test_nitest_buckets.py::test_a_loop_splits_by_the_parameters_it_reads"),
    ),
    Mutant(
        "split-grids-in-two", "nitest.py",
        "    if len(cond) ** 2 > len(numbers):\n",
        "    if True:\n",
        ("tests/test_compiled_interp.py::test_batches_agree_with_the_walk_near_the_edges",
         "tests/test_nitest_buckets.py::test_splitting_costs_at_most_three_runs_per_environment",
         "tests/test_nitest_buckets.py::test_a_loop_splits_by_the_parameters_it_reads"),
    ),
    Mutant(
        "most-hidden-cell-first", "nitest.py",
        "                       key=lambda op: len(_observable_split(gamma, op[1], op[0])[1]))\n",
        "                       key=lambda op: -len(_observable_split(gamma, op[1], op[0])[1]))\n",
        ("tests/test_nitest_buckets.py::test_one_interpreter_run_per_environment",
         "tests/test_nitest_buckets.py::test_one_interpreter_call_per_predicted_run"),
    ),
)


def _junit_id(node: str) -> tuple[str, str]:
    """The (classname, name) under which pytest's JUnit report lists ``node``."""
    path, name = node.split("::", 1)
    return path[:-len(".py")].replace("/", "."), name


def run_mutant(mutant: Mutant, timeout: float = 900) -> dict[str, str]:
    """Each killer's outcome on ``mutant``: ``killed`` when it fails,
    ``survived`` when it passes, ``skipped``, or ``missing`` when it did not
    run."""
    with tempfile.TemporaryDirectory() as parent:
        tmp = os.path.join(parent, "checkout")
        shutil.copytree(ROOT, tmp, ignore=UNCOPIED)
        path = os.path.join(tmp, "src", "permflow", mutant.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.snippet) != 1:
            raise ValueError(f"{mutant.name}: the snippet does not occur once in {mutant.file}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.snippet, mutant.replacement))
        report = os.path.join(tmp, "report.xml")
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junitxml={report}", *mutant.killers],
            cwd=tmp, env=env, capture_output=True, timeout=timeout, check=False)
        outcomes = {}
        if os.path.exists(report):
            for case in ET.parse(report).iter("testcase"):
                tags = {child.tag for child in case}
                outcomes[case.get("classname"), case.get("name")] = (
                    "killed" if tags & {"failure", "error"}
                    else "skipped" if "skipped" in tags else "survived")
    return {node: outcomes.get(_junit_id(node), "missing") for node in mutant.killers}


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    alive = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcomes = run_mutant(mutant)
        verdict = "killed" if all(o == "killed" for o in outcomes.values()) else "SURVIVED"
        alive += verdict != "killed"
        print(f"{mutant.name:32} {verdict}", flush=True)
        for node, outcome in outcomes.items():
            print(f"    {outcome:9} {node}", flush=True)
    return 1 if alive else 0


if __name__ == "__main__":
    if os.environ.get("PERMFLOW_MUTANTS") != "1":
        print("set PERMFLOW_MUTANTS=1 to run the mutants", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
