"""Self-test of the benchmark's checks: real reports pass, corrupted ones fail.

    python3 bench/selftest.py

Runs a few jobs of each workload through relcomplex's CLI, confirms that
their reports pass the checks, then corrupts each report the way a broken
engine might (a flipped Betti number, a non-free collapse step, a dropped
facet, non-canonical JSON) and confirms that the checks reject it.  Exits 1
if any good report fails or any corrupted one passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run
from checks import CheckError, canonical_json
from workloads import WORKLOADS


def flip_betti(value):
    value["k"]["betti"][1] += 1
    return value


def non_free_step(value):
    """Prepend [F - v, F] for the first free face F: F - v lies in F and F's coface."""
    free = value["steps"][0][0]
    if len(free) < 2:
        raise SystemExit("the first free face is a vertex; the corruption needs an edge or more")
    value["steps"].insert(0, [free[:-1], free])
    return value


def drop_facet(value):
    value["facets"] = value["facets"][1:]
    return value


def drop_canonical_facet(value):
    """Remove the y that names the largest face, so K loses that facet."""
    sizes = {}
    for x, y in value["pairs"]:
        sizes[y] = sizes.get(y, 0) + 1
    top = max(sizes, key=lambda y: (sizes[y], y))
    value["pairs"] = [p for p in value["pairs"] if p[1] != top]
    return value


# (workload, command, corruption, words the rejection must contain)
CASES = [
    ("dowker-homology", "verify dowker", flip_betti, "Betti"),
    ("poset-collapse", "collapse leq-strict --side k", non_free_step, "proper cofaces"),
    ("poset-collapse", "collapse leq-strict --side l", non_free_step, "proper cofaces"),
    ("poset-collapse", "collapse greedy", non_free_step, "proper cofaces"),
    ("cli-files", "poset k", drop_facet, "facets differ"),
    ("cli-files", "collapse verify", drop_facet, "greedy core"),
    ("cli-files", "dowker canonical", drop_canonical_facet, "lost a facet"),
]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.fresh_import()
    failures = 0
    for name in sorted({case[0] for case in CASES}):
        work = run.HERE / "_work" / f"selftest-{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            wl = WORKLOADS[name](1, work)
            reports = {}
            for job in wl.jobs:  # one job per command, in list order, so derived inputs exist
                if job.command in reports:
                    continue
                code, _, out, err = run.run_job(cli, job)
                if code != 0:
                    raise SystemExit(f"{name}/{job.command} exited {code}: {err}")
                value = canonical_json(out)
                job.check(value)
                if job.then is not None:
                    job.then(out)
                reports[job.command] = (job, out, value)
            print(f"PASS {name}: {len(reports)} real reports accepted")
            for wname, command, corrupt, words in CASES:
                if wname != name:
                    continue
                job, out, value = reports[command]
                try:
                    job.check(corrupt(copy.deepcopy(value)))
                    outcome = "accepted"
                except CheckError as exc:
                    outcome = str(exc)
                ok = words in outcome
                failures += not ok
                print(f"{'PASS' if ok else 'FAIL'} {name}/{command} {corrupt.__name__}: {outcome}")
            job, out, value = reports[wl.jobs[0].command]
            try:
                canonical_json(json.dumps(value, indent=1))
                outcome = "accepted"
            except CheckError as exc:
                outcome = str(exc)
            ok = outcome == "stdout is not canonical JSON"
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {name}/{job.command} indented JSON: {outcome}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
