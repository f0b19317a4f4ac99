"""relcomplex benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload dowker-homology --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; relcomplex is imported from its
``src/``.  Inputs are generated from the seed, then one client runs the
workload's fixed job list through ``relcomplex.cli.main(argv)`` in this
process, round after round, until ``--seconds`` have passed and enough
jobs ran for the tail percentile.  Every round is whole, so every run has
the same job mix.  Each report is checked against values the benchmark
computes itself, outside the timed span.  A fixed reference loop is timed
before every job and around every set-up, and each time is scaled to the
speed at which that loop takes ``REFERENCE_MS``, so that the figures follow
the program and not the shared machine's changing speed.  The last line
of stdout is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics from in-memory spans with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONVERT = {"poset": "to_poset", "relation": "to_relation", "complex": "to_complex", "space": "to_topology"}

# A nominal time for the reference loop, in ms; it took 4.6 to 8.5 ms on the
# 2-vCPU VM the README's figures come from.  A job is reported as the time
# it would have taken had the machine run the loops of its round this fast.
REFERENCE_MS = 5.0

# A fixed complex for the reference loop: ten 4-point faces over ten points.
REFERENCE_FACES = checks.closure(sum(1 << (j + d) % 10 for d in (0, 1, 3, 6)) for j in range(10))


def reference_loop() -> int:
    """Fixed pure-Python work that relcomplex does not run, about 5 ms.

    Half of it is a tight integer loop and half the benchmark's own GF(p)
    homology on ``REFERENCE_FACES`` (bitmask sets, dicts of sparse
    columns).  When the shared machine slows, this mix slows about as much
    as the workloads' jobs do: the integer loop alone slows less than the
    collapse and file jobs, the homology alone more than the Dowker jobs.
    """
    acc = 0
    for i in range(32000):
        acc += i * i % 7
    for _ in range(7):
        acc += sum(checks.betti_mod_p(REFERENCE_FACES))
    return acc


def reference_time() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, reference_seconds: float) -> float:
    """``seconds`` measured while the reference loop took ``reference_seconds``."""
    return seconds * REFERENCE_MS * 1e-3 / reference_seconds


def fresh_import():
    """Import relcomplex from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "relcomplex" or m.startswith("relcomplex.")]:
        del sys.modules[name]
    cli = importlib.import_module("relcomplex.cli")
    if Path(cli.__file__).resolve().parent != SRC / "relcomplex":
        raise SystemExit(f"relcomplex was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(inputs):
    """Import relcomplex and load every input once; return (seconds, cli module).

    The seconds are at reference speed, from three reference loops timed
    before and three after.
    """
    before = [reference_time() for _ in range(3)]
    start = time.perf_counter()
    cli = fresh_import()
    formats = sys.modules["relcomplex.formats"]
    for kind, path in inputs:
        getattr(formats, CONVERT[kind])(formats.parse(Path(path).read_text(encoding="utf-8")))
    elapsed = time.perf_counter() - start
    after = [reference_time() for _ in range(3)]
    return at_reference_speed(elapsed, statistics.fmean(before + after)), cli


def run_job(cli, job):
    """One CLI call with stdout and stderr captured; only main() is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(job.argv)
        except Exception:  # a crash is a failed job, not the end of the run
            code = "crash"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


class Verifier:
    """Checks every report; a report already checked for the same job passes as is.

    Returns None for a good report, else ``(wrong, message)``: ``wrong`` is
    true for a report that fails a check, false for a job that exited
    non-zero or raised.
    """

    def __init__(self):
        self.passed = {}

    def __call__(self, i, job, code, out, err):
        if code != 0:
            return False, f"{job.command}: exit {code}: {err.strip()[-400:]}"
        if self.passed.get(i) != out:
            try:
                job.check(checks.canonical_json(out))
            except (checks.CheckError, KeyError, TypeError, ValueError, AttributeError) as exc:
                return True, f"{job.command}: {type(exc).__name__}: {exc}"
            self.passed[i] = out
        if job.then is not None:
            job.then(out)
        return None


def percentile(sorted_values, pct: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(pct / 100 * len(sorted_values)) - 1, 0)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relcomplex" / "cli.py").is_file():
        print(f"no relcomplex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        seconds, cli = set_up(wl.inputs)  # the jobs run on this import
        setups = [seconds]
        tracer = spans.Tracer() if args.trace else None
        if tracer:
            tracer.install()

        verify = Verifier()
        problems = []
        warmed = set()
        for i, job in enumerate(wl.jobs):  # warm-up: the first job of each command, untimed
            if job.command in warmed:
                continue
            warmed.add(job.command)
            gc.collect()
            code, _, out, err = run_job(cli, job)
            problem = verify(i, job, code, out, err)
            if problem:
                problems.append((problem[0], f"warm-up: {problem[1]}"))
        if tracer:
            tracer.reset()
        gc.collect()
        gc.freeze()

        n_jobs = len(wl.jobs)
        min_rounds = math.ceil(10 * 100 / ((100 - wl.tail_pct) * n_jobs))
        times, wall_times, all_refs, per_command, failed, rounds = [], [], [], {}, 0, 0
        start = time.perf_counter()
        while rounds < min_rounds or time.perf_counter() - start < args.seconds:
            round_times, refs = [], []
            for i, job in enumerate(wl.jobs):
                gc.collect()
                refs.append(reference_time())
                if tracer:
                    tracer.job = rounds * n_jobs + i
                code, elapsed, out, err = run_job(cli, job)
                round_times.append(elapsed)
                problem = verify(i, job, code, out, err)
                if problem:
                    failed += 1
                    if len(problems) < 20:
                        problems.append((problem[0], f"round {rounds}: {problem[1]}"))
            reference = statistics.fmean(refs)
            for job, elapsed in zip(wl.jobs, round_times):
                times.append(at_reference_speed(elapsed, reference))
                per_command.setdefault(job.command, []).append(times[-1])
            wall_times += round_times
            all_refs += refs
            rounds += 1
            # Set up again after every round, so that setup_s samples the same
            # machine conditions as the jobs; the jobs keep the first import.
            setups.append(set_up(wl.inputs)[0])
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for _, message in problems:
        print(message, file=sys.stderr)
    ordered = sorted(times)
    if tracer:
        metrics = tracer.layer_metrics()
    else:
        metrics = {
            "jobs_per_s": {"value": (len(times) - failed) / sum(times), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": percentile(ordered, wl.tail_pct) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    # A failed job counts in `failed`; `correct` says whether every report
    # that came back passed its checks.
    correct = not any(wrong for wrong, _ in problems)
    result = {"correct": correct, "attempted": len(times), "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(
        result,
        rounds=rounds,
        wall_s=wall,
        jobs_per_round=n_jobs,
        tail_pct=wl.tail_pct,
        setup_runs_s=setups,
        sizes=wl.sizes,
        latency_ms={f"p{q}": percentile(ordered, q) * 1e3 for q in (50, 90, 95, 99)},
        wall_latency_ms={f"p{q}": percentile(sorted(wall_times), q) * 1e3 for q in (50, 90, 95, 99)},
        reference_loop_ms=statistics.median(all_refs) * 1e3,
        job_median_ms=[statistics.median(times[i::n_jobs]) * 1e3 for i in range(n_jobs)],
        command_median_ms={c: statistics.median(v) * 1e3 for c, v in per_command.items()},
        command_share={c: sum(v) / sum(times) for c, v in per_command.items()},
    )
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
