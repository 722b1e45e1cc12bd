"""One-off scaling sweep behind the ROADMAP baseline table (not a workload).

    python3 perfbench/sweep.py --out perfbench/results/sweep.json

Runs ``permflow infer --json --timings`` on fan systems (see workloads.py)
at the table's (k, N) points and records the generate, solve and recheck
times that ``--timings`` reports, as the median of ``--repeats`` runs.  A
case that runs over ``--budget`` seconds is recorded as ``"timeout"`` and
not repeated.  The record carries the git revision, Python version, CPU
count and platform.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path

import run
import workloads

CASES = ((2, 80), (2, 160), (2, 320), (4, 20), (6, 10), (8, 10))


def git_revision(root: Path) -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sweep(seed: int, repeats: int, budget: float) -> dict:
    cli = run.import_permflow()
    rows = []
    with run.job_env(f"sweep-{seed}") as tmp:
        for k, n in CASES:
            job = workloads.fan_job(random.Random(f"sweep:{seed}:{k}:{n}"), k, n)
            [path] = run.write_jobs(tmp, [job])
            row = {"k": k, "N": n, "runs": []}
            for _ in range(repeats):
                status, code, out, secs = run.run_job(
                    cli.main, job.argv(path) + ["--timings"], budget)
                if status != "done":
                    row["runs"].append({"status": status, "job_s": secs})
                    break
                reason = run.check_output(job, code, out)
                if reason is not None:
                    raise SystemExit(f"k={k} N={n}: {reason}")
                row["runs"].append({"job_s": secs, **json.loads(out)["timings"]})
            done = [r for r in row["runs"] if "status" not in r]
            if len(done) < len(row["runs"]):
                row["result"] = "timeout"
            else:
                row["result"] = {key: statistics.median(r[key] for r in done)
                                 for key in ("job_s", "generate", "solve", "recheck")}
            rows.append(row)
            print(json.dumps({"k": k, "N": n, "result": row["result"]}), file=sys.stderr)
    return {
        "revision": git_revision(run.ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "budget_s": budget,
        "repeats": repeats,
        "cases": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--budget", type=float, default=60.0,
                    help="seconds per run before it counts as a timeout")
    ap.add_argument("--out", help="write the record here (default: stdout)")
    args = ap.parse_args(argv)
    record = sweep(args.seed, args.repeats, args.budget)
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
