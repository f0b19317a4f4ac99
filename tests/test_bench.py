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


def _run(workload, trace):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", trace]
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
    return result


@pytest.mark.parametrize("workload", ["poset-collapse", "dowker-homology", "cli-files"])
def test_reports_pass_the_benchmark_checks(workload):
    assert _run(workload, "0")["attempted"] > 0


def test_traced_run_completes():
    # the spans wrap library functions by name, so a renamed one fails here
    assert _run("cli-files", "1")["attempted"] > 0
