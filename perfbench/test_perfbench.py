"""Tests of the benchmark itself, at smoke sizes (a few seconds in all).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent

# Counters that must repeat exactly between two traced runs of one code.
DETERMINISTIC = (
    "constraints.generated", "constraints.unique", "solver.atoms",
    "solver.saturated_atoms", "solver.core_reruns", "interp.runs",
    "nitest.pairs",
)


@pytest.fixture(scope="module")
def smoke_reports():
    return {(r["workload"], r["trace"]): r for r in run.smoke(seed=7)}


def counters(report):
    return {k: report["result"]["metrics"][k]["value"] for k in DETERMINISTIC}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_correct(smoke_reports, workload, trace):
    report = smoke_reports[(workload, trace)]
    result = report["result"]
    assert result["correct"], report["wrong"]
    assert result["failed"] == 0 and result["attempted"] >= workloads.PASS_JOBS
    assert report["checks"]["known_answer"] >= workloads.PASS_JOBS
    if workload != "ni-grid":
        assert report["checks"]["oracle"] == workloads.PASS_JOBS
    names = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(names)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat(smoke_reports, workload):
    again = run.run(workload, 7, run.SMOKE_SECONDS, True, scale="smoke", setups=2)
    assert counters(again) == counters(smoke_reports[(workload, 1)])


def test_counters_repeat_across_processes(smoke_reports):
    env = dict(os.environ, PYTHONHASHSEED="12345")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    for line in proc.stdout.splitlines()[:-1]:
        report = json.loads(line)
        if report["trace"]:
            assert counters(report) == counters(smoke_reports[(report["workload"], 1)])


def test_layers_cover_traced_jobs(smoke_reports):
    for workload in workloads.WORKLOADS:
        metrics = smoke_reports[(workload, 1)]["result"]["metrics"]
        assert metrics["trace.coverage"]["value"] > 0.9


def test_timeouts_are_recorded_not_dropped():
    report = run.run("infer-perms", 1, 0.0, False, scale="smoke", budget=1e-4, setups=1)
    result = report["result"]
    assert report["statuses"] == ["timeout"]
    assert result["attempted"] == workloads.PASS_JOBS == result["failed"]
    assert report["failed_frac"] == 1.0
    assert result["metrics"]["decided_frac"]["value"] == 0.0
    assert report["job_s.p50"] >= 1e-4


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_reject_a_wrong_answer(workload, tmp_path):
    job = workloads.make_pass(workload, 3, "smoke")[0]
    cli = run.import_permflow()
    [path] = run.write_jobs(tmp_path, [job])
    with run.job_env("test-checks"):
        status, code, out, _ = run.run_job(cli.main, job.argv(path))
    assert status == "done" and code == job.exit_code
    assert run.check_output(job, code, out) is None
    if job.types:
        qname, (params, ret) = next(iter(job.types.items()))
        flipped = {s: ("H" if lv == "L" else "L") for s, lv in ret.items()}
        bad = replace(job, types={**job.types, qname: (params, flipped)})
    elif job.planted:
        bad = replace(job, planted="A.nowhere")
    else:
        bad = replace(job, cells={**job.cells, "N.leak": job.cells["N.safe"]})
    assert run.check_output(bad, code, out) is not None


def test_no_sources_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "infer-wide", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
