"""The benchmark's smoke run, so a harness change that breaks its checks
(witnesses, ``pairs_tested``, verdicts) fails here too."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_benchmark_smoke_run():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok"}
