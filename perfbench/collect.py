"""Repeat benchmark runs over several seeds and summarise them.

    python3 perfbench/collect.py --runs 10 --out perfbench/results/seed.json

For each workload, runs ``run.py --trace 0`` once per seed (1..runs), each
in a fresh process, and reports per end-to-end metric
the median and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
Then one ``--trace 1`` run per workload (seed 1) gives the per-layer
metrics, and the tracing overhead is its mean job time over the untraced
seed-1 run's, both in ``ref`` units.  Runs go one after another, never in
parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from sweep import git_revision

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def collect(names, runs: int, seconds: int) -> dict:
    out = {}
    for workload in names:
        reports, values = [], {}
        for seed in range(1, runs + 1):
            report, result = one_run(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {report}")
            reports.append(report)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  file=sys.stderr)
        _, traced = one_run(workload, 1, seconds, 1)
        out[workload] = {
            "end_to_end": {
                name: {"median": statistics.median(v), "spread": spread(v), "values": v}
                for name, v in values.items()
            },
            "jobs": [r["jobs"] for r in reports],
            "tail_percentile": [r["tail_percentile"] for r in reports],
            "checks_seed1": reports[0]["checks"],
            "per_layer_seed1": {k: m["value"] for k, m in traced["metrics"].items()},
            # In ref units, so that the host's drift between the runs cancels.
            "tracing_overhead": (traced["metrics"]["trace.job_ref"]["value"]
                                 / reports[0]["job_ref_mean"] - 1),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    ap.add_argument("--out", help="write the summary here (default: stdout)")
    args = ap.parse_args(argv)
    record = {
        "revision": git_revision(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "runs": args.runs,
        "seconds": args.seconds,
        "workloads": collect(args.workload or workloads.WORKLOADS, args.runs, args.seconds),
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
