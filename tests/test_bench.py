"""A short benchmark run, so that a report its checks reject fails here first.

The run imports relcomplex from this checkout's ``src/`` and writes only to
the git-ignored ``bench/results/`` and ``bench/_work/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["poset-collapse", "dowker-homology", "cli-files"])
def test_reports_pass_the_benchmark_checks(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "0"]
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
    assert result["attempted"] > 0
