"""permflow benchmark: whole CLI jobs in a closed loop, untraced or traced.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload infer-wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One process, one thread.  Each job is one ``permflow.cli.main([...])`` call
on a generated ``.pf`` file, imported from the checkout's ``src/``; the next
job starts when the previous one returns.  The run measures whole passes
over the workload's seeded job set until ``--seconds`` have gone by, checks
every output against the answer known from how its system was built, and
prints a report line and then the result line.  With ``--trace 1`` the
layer tracer is installed and the result holds the per-layer metrics
instead of the end-to-end ones.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent  # the source checkout

JOB_BUDGET_S = 10.0  # per-job time budget; a job over it is a timeout
SETUPS = 8  # set-ups per run; setup_s is their median
REF_SIZE = 6000  # iterations of reference_work: 15 ms on a 2-vCPU x86-64 VM
TAIL_BEYOND = 10  # the tail is the highest percentile with this many jobs beyond it
ORACLE_MAX_K = 4  # oracle.oracle_solve refuses larger permission universes
SMOKE_SECONDS = 0.2

END_TO_END_UNITS = {
    "job_ref.p50": "ref",
    "job_ref.tail": "ref",
    "jobs_per_kref": "1/kref",
    "decided_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; per_layer_metrics computes them
PER_LAYER_UNITS = {
    "parser.parse_s": "s",
    "parser.kB_per_s": "kB/s",
    "system.validate_s": "s",
    "constraints.generate_s": "s",
    "constraints.generated": "count",
    "constraints.unique": "count",
    "constraints.unique_ratio": "ratio",
    "typecheck.recheck_s": "s",
    "inference.self_s": "s",
    "solver.solve_s": "s",
    "solver.decompose_s": "s",
    "solver.saturate_s": "s",
    "solver.sweep_s": "s",
    "solver.verify_s": "s",
    "solver.core_s": "s",
    "solver.atoms": "count",
    "solver.saturated_atoms": "count",
    "solver.core_reruns": "count",
    "solver.core_size": "count",
    "interp.runs": "count",
    "interp.run_s": "s",
    "nitest.pairs": "count",
    "nitest.cells": "count",
    "nitest.self_s": "s",
    "nitest.runs_per_pair": "ratio",
    "cli.self_s": "s",
    "cli.json_kB": "kB",
    "trace.job_s": "s",
    "trace.job_ref": "ref",
    "trace.coverage": "ratio",
}

class Record(NamedTuple):
    idx: int  # position of the job in the pass
    status: str  # "done", "wrong", "timeout", "raised" or "exit <code>"
    job_s: float  # the cli.main call
    slot_s: float  # the call plus this benchmark's per-job checks
    out_kB: float


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no permflow sources)."""


class JobTimeout(BaseException):
    """Raised in the job by SIGALRM when it overruns its budget.

    A BaseException, so that no ``except Exception`` inside permflow can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise JobTimeout()


# --------------------------------------------------------------- reference

@dataclass(frozen=True)
class _RefNode:
    op: int
    lhs: object
    rhs: object


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def reference_work() -> int:
    """A fixed pure-Python computation that shares no code with permflow.

    Timed between consecutive jobs, it measures how fast the host runs this
    process at that moment: small frozen objects, hashing, sets, dicts and
    isinstance dispatch, like the analysis itself.  A job's time in ``ref``
    units is its wall time over the mean of the two measurements around it.
    """
    seen = set()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(REF_SIZE):
        node = _RefNode(i % 7, (i % 13, i % 5), i % 11)
        if node not in seen:
            seen.add(node)
        if isinstance(node.lhs, tuple):
            acc += node.lhs[0] * node.rhs
        counts[node.op] = counts.get(node.op, 0) + 1
    return acc + len(seen) + len(counts)


# ------------------------------------------------------------------ set-up

def import_permflow():
    """Import ``permflow`` afresh from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "permflow" / "cli.py").is_file():
        raise BenchError(f"no permflow sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "permflow" or m.startswith("permflow.")]:
        del sys.modules[name]
    cli = importlib.import_module("permflow.cli")
    if Path(cli.__file__).resolve().parent != src / "permflow":
        raise BenchError(f"permflow imported from {cli.__file__}, not from {src}")
    return cli


def write_jobs(tmp: Path, jobs) -> list[str]:
    tmp.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx, job in enumerate(jobs):
        path = tmp / f"{idx:02d}_{job.name}.pf"
        path.write_text(job.source, encoding="utf-8")
        paths.append(str(path))
    return paths


def set_up(workload: str, seed: int, scale: str, tmp: Path):
    """Import, generate the job set, and run one tiny warm-up job."""
    cli = import_permflow()
    jobs = workloads.make_pass(workload, seed, scale)
    paths = write_jobs(tmp, jobs)
    warm = workloads.make_pass(workload, seed + 1, "smoke")[0]
    [warm_path] = write_jobs(tmp / "warmup", [warm])
    status, code, out, _ = run_job(cli.main, warm.argv(warm_path))
    if status != "done" or check_output(warm, code, out) is not None:
        raise BenchError(f"warm-up job failed: {status}, exit {code}")
    return cli, jobs, paths


# -------------------------------------------------------------------- jobs

def run_job(main, argv, budget: float = JOB_BUDGET_S, tracer=None, job_id=0):
    """One CLI call under the time budget: (status, exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    status = "done"
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.run_job(job_id, main, argv)
    except JobTimeout:
        status = "timeout"
    except (Exception, SystemExit):  # a traceback or an argparse exit
        status = "raised"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, code, out.getvalue(), time.perf_counter() - t0


def check_output(job, code, out: str) -> str | None:
    """None when the output matches the job's known answer, else the reason."""
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if job.command == "nitest":
        return _check_nitest(job, doc)
    if job.exit_code == 0:
        if doc.get("ok") is not True:
            return "inference did not succeed"
        got = {f["name"]: (f["params"], f["return"]) for f in doc["functions"]}
        want = {q: (list(p), r) for q, (p, r) in job.types.items()}
        return None if got == want else "inferred types differ from the known answer"
    blamed = doc.get("unsat", {}).get("functions", [])
    if doc.get("ok") is not False or job.planted not in blamed:
        return f"planted {job.planted} not blamed (blamed: {blamed})"
    return None


def _check_nitest(job, doc) -> str | None:
    seen = set()
    for cell in doc["cells"]:
        fn, perms, obs = cell["function"], cell["P"], cell["observer"]
        seen.add((fn, perms, obs))
        want = job.cells[fn](perms, obs)
        if cell["verdict"] != want:
            return f"{fn} P={perms} observer={obs}: {cell['verdict']}, expected {want}"
        if want == "violation":
            w = cell["witness"]
            if w["out1"] == w["out2"] or any(w["env1"][v] != w["env2"][v] for v in ("a", "b")):
                return f"{fn}: witness does not show a leak"
    if len(seen) != 2 * 2 * len(job.cells):  # two perm sets, two observers
        return "missing noninterference cells"
    return None


def oracle_check(job) -> str | None:
    """Compare the known answer with ``oracle.oracle_solve`` on the job's constraints."""
    from permflow.constraints import TVar, gen_constraints
    from permflow.oracle import OracleUnsat, oracle_solve
    from permflow.parser import parse_system
    from permflow.system import validate_system

    csys = validate_system(parse_system(job.source))
    gen = gen_constraints(csys)
    requested = tuple(
        t.vid for sig in gen.signatures.values()
        for t in (*sig.params, sig.ret) if isinstance(t, TVar)
    )
    try:
        theta = oracle_solve(gen.all_constraints(), csys.lattice,
                             csys.universe.count, requested)
    except OracleUnsat:
        return None if job.exit_code == 1 else "oracle finds no solution"
    if job.exit_code == 1:
        return "oracle finds a solution to a system with a planted leak"

    def table(term):
        t = theta[term.vid] if isinstance(term, TVar) else term.type
        return {csys.universe.format_set(p): csys.lattice.name(t.at(p))
                for p in csys.universe.sets()}

    for qname, (params, ret) in job.types.items():
        sig = gen.signatures[qname]
        if [table(t) for t in sig.params] != params or table(sig.ret) != ret:
            return f"oracle disagrees on {qname}"
    return None


# --------------------------------------------------------------------- run

@contextlib.contextmanager
def job_env(name: str):
    """A scratch directory for job files and the SIGALRM budget handler."""
    tmp = ROOT / ".perfbench_tmp" / name
    old_alarm = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield tmp
    finally:
        signal.signal(signal.SIGALRM, old_alarm)
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", budget: float = JOB_BUDGET_S,
        setups: int = SETUPS) -> dict:
    """One benchmark run; returns the report, holding the result line."""
    with job_env(f"{workload}-{seed}-{scale}") as tmp:
        return _run(workload, seed, seconds, trace, scale, budget, setups, tmp)


def _run(workload, seed, seconds, trace, scale, budget, setups, tmp):
    setup_times = []

    def timed_set_up():
        t0 = time.perf_counter()
        result = set_up(workload, seed, scale, tmp)
        setup_times.append(time.perf_counter() - t0)
        return result

    # The first set-up feeds the loop.  The others repeat it between passes,
    # so that their median samples the whole run and not one moment of the
    # host's speed; the loop keeps the modules it started with, including
    # for the imports permflow makes at call time.
    cli, jobs, paths = timed_set_up()
    loop_modules = {name: mod for name, mod in sys.modules.items()
                    if name == "permflow" or name.startswith("permflow.")}

    def repeat_set_up():
        timed_set_up()
        sys.modules.update(loop_modules)
        gc.collect()  # the dropped module set, now, rather than in a job

    gc.collect()

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    records: list[Record] = []
    ref_times = [time_reference()]  # ref_times[i], ref_times[i + 1] bracket job i
    first_out: dict[int, str] = {}
    checks = {"known_answer": 0, "repeat_identical": 0, "oracle": 0}
    wrong: list[str] = []
    loop_start = time.perf_counter()
    try:
        while True:
            for idx, (job, path) in enumerate(zip(jobs, paths)):
                slot_start = time.perf_counter()
                status, code, out, dt = run_job(
                    cli.main, job.argv(path), budget, tracer, len(records))
                if tracer is not None:
                    tracer.settle()
                if status == "done" and code != job.exit_code:
                    status = "exit %s" % code
                if status == "done":
                    if first_out.get(idx) == out:
                        checks["repeat_identical"] += 1
                    else:
                        checks["known_answer"] += 1
                        reason = check_output(job, code, out)
                        if reason is None:
                            first_out.setdefault(idx, out)
                        else:
                            status = "wrong"
                            wrong.append(f"{job.name}: {reason}")
                slot = time.perf_counter() - slot_start
                records.append(Record(idx, status, dt, slot, len(out) / 1000))
                ref_times.append(time_reference())
            if time.perf_counter() - loop_start >= seconds:
                break
            if len(setup_times) < setups:
                repeat_set_up()
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(setup_times) < setups:
        repeat_set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for idx, job in enumerate(jobs):
        if job.command == "infer" and job.k <= ORACLE_MAX_K:
            checks["oracle"] += 1
            reason = oracle_check(job)
            if reason is not None:
                wrong.append(f"{job.name}: {reason}")

    attempted = len(records)
    done = [r for r in records if r.status == "done"]
    failed = [r for r in records if r.status not in ("done", "wrong")]
    n_wrong = sum(1 for r in records if r.status == "wrong")
    loop_s = sum(r.slot_s for r in records)
    report = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "jobs": attempted,
        "passes": attempted // len(jobs),
        "loop_s": loop_s,
        "ref_s": statistics.median(ref_times),
        "failed_frac": len(failed) / attempted,
        "wrong_frac": n_wrong / attempted,
        "statuses": sorted({r.status for r in records}),
        "checks": checks,
        "wrong": wrong[:10],
    }
    # Each job in units of the reference measured on either side of it.
    local_ref = [(a + b) / 2 for a, b in zip(ref_times, ref_times[1:])]
    if trace:
        metrics = per_layer_metrics(tracer, records, local_ref, jobs, first_out)
    else:
        # A failed job counts against every latency figure at the budget.
        def latency(r):
            return r.job_s if r.status in ("done", "wrong") else max(r.job_s, budget)

        times = sorted(latency(r) for r in records)
        ref_units = sorted(latency(r) / ref for r, ref in zip(records, local_ref))
        slot_units = sum(r.slot_s / ref for r, ref in zip(records, local_ref))
        tail_idx = max(attempted - 1 - TAIL_BEYOND, 0)
        report.update({
            "job_s.p50": statistics.median(times),
            "job_s.tail": times[tail_idx],
            "jobs_per_s": len(done) / loop_s,
            "job_s_mean": statistics.fmean(times),
            "job_ref_mean": statistics.fmean(ref_units),
            "tail_percentile": round(100 * tail_idx / max(attempted - 1, 1), 1),
        })
        values = {
            "job_ref.p50": statistics.median(ref_units),
            "job_ref.tail": ref_units[tail_idx],
            "jobs_per_kref": 1000 * len(done) / slot_units,
            "decided_frac": len(done) / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    report["result"] = {
        "correct": not wrong and n_wrong == 0,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    return report


def per_layer_metrics(tracer: Tracer, records, local_ref, jobs, outputs) -> dict:
    """Per-job means over the run (whole passes, so counters repeat exactly)."""
    layers = tracer.layer_totals()
    n = len(records)
    total: dict[str, float] = {}
    for per in list(layers.values()) + list(tracer.counts.values()):
        for key, value in per.items():
            total[key] = total.get(key, 0.0) + value

    def t(key):
        return total.get(key, 0.0)

    # Repeats of a job print the same bytes as its checked first output.
    ni_docs = {idx: json.loads(out) for idx, out in outputs.items()
               if jobs[idx].command == "nitest"}
    pairs = cells = 0
    for r in records:
        if r.status == "done" and r.idx in ni_docs:
            pairs += sum(c["pairs_tested"] for c in ni_docs[r.idx]["cells"])
            cells += len(ni_docs[r.idx]["cells"])
    job_time = sum(r.job_s for r in records)
    self_sum = sum(v for k, v in total.items() if k.endswith(".self"))
    values = {
        "parser.parse_s": t("parser.busy") / n,
        "parser.kB_per_s": t("parser.bytes") / 1000 / t("parser.busy") if t("parser.busy") else 0.0,
        "system.validate_s": t("system.busy") / n,
        "constraints.generate_s": t("constraints.busy") / n,
        "constraints.generated": t("constraints.generated") / n,
        "constraints.unique": t("constraints.unique") / n,
        "constraints.unique_ratio": (t("constraints.unique") / t("constraints.generated")
                                     if t("constraints.generated") else 0.0),
        "typecheck.recheck_s": t("typecheck.busy") / n,
        "inference.self_s": t("inference.self") / n,
        "solver.solve_s": t("solver.busy") / n,
        "solver.decompose_s": t("solver.decompose_s") / n,
        "solver.saturate_s": t("solver.saturate_s") / n,
        "solver.sweep_s": t("solver.sweep_s") / n,
        "solver.verify_s": t("solver.verify_s") / n,
        "solver.core_s": t("solver.core_s") / n,
        "solver.atoms": t("solver.atoms") / n,
        "solver.saturated_atoms": t("solver.saturated_atoms") / n,
        "solver.core_reruns": t("solver.core_reruns") / n,
        "solver.core_size": t("solver.core_size") / n,
        "interp.runs": t("interp.spans") / n,
        "interp.run_s": t("interp.busy") / n,
        "nitest.pairs": pairs / n,
        "nitest.cells": cells / n,
        "nitest.self_s": t("nitest.self") / n,
        "nitest.runs_per_pair": t("interp.spans") / pairs if pairs else 0.0,
        "cli.self_s": t("cli.self") / n,
        "cli.json_kB": sum(r.out_kB for r in records) / n,
        "trace.job_s": job_time / n,
        "trace.job_ref": sum(r.job_s / ref for r, ref in zip(records, local_ref)) / n,
        "trace.coverage": self_sum / job_time if job_time else 0.0,
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


# -------------------------------------------------------------------- main

def smoke(seed: int = 1) -> list[dict]:
    """Every workload at tiny sizes, untraced and traced."""
    return [run(w, seed, SMOKE_SECONDS, trace, scale="smoke", setups=2)
            for w in workloads.WORKLOADS for trace in (False, True)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny sizes and exit")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    try:
        if args.smoke:
            reports = smoke(args.seed)
            for rep in reports:
                print(json.dumps(rep))
            ok = all(r["result"]["correct"] and not r["result"]["failed"] for r in reports)
            print(json.dumps({"smoke": "ok" if ok else "FAILED"}))
            return 0 if ok else 1
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    result = report.pop("result")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
