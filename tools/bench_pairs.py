"""Paired benchmark runs: this tree against a parent revision, in alternating order.

    python3 tools/bench_pairs.py --workload poset-collapse --pairs 10 --seconds 8
    python3 tools/bench_pairs.py --workload cli-files --parent HEAD~2 --seed 500
    python3 tools/bench_pairs.py --workload all --parent-tree ../parent

The parent revision (default ``HEAD~1``) is checked out with ``git worktree
add`` into a temporary directory, which is removed afterwards; or
``--parent-tree`` names a checkout to use instead.  Each pair runs
``bench/run.py --trace 0`` once on each tree with the same fresh seed
(``--seed``, ``--seed + 1``, ...), the parent first in even pairs and this
tree first in odd ones.  The script prints each end-to-end metric's
quartiles on both sides, the ratio of the medians (this tree over the
parent), the pairs this tree won, by the direction ``BENCHMARK.json``
gives, the pairs whose second run read better (a count far from half
the pairs says the readings track run order), whether the gain is
claimable: won in at least 9 of every 10 pairs, of at least 10, with the
median better by more than the distance between the parent's quartiles,
and the no-regression verdict against the metric's ``bound`` in
``BENCHMARK.json`` (see ``verdict``).  ``--workload all``
runs every workload ``BENCHMARK.json`` lists, one after another from the
same first seed, and prints one table for each.  All runs of one
invocation write their bytecode under one fresh temporary directory, their
``PYTHONPYCACHEPREFIX``, removed afterwards, so neither tree loads bytecode
left in its ``__pycache__`` (the prefix mirrors each source's absolute path,
so the two trees share it without clashing).  It writes nothing else
itself; ``bench/run.py`` leaves its detail files in each tree's
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), by the inclusive method; a
    single value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent, head, direction: str, bound: float) -> str:
    """Whether this tree's runs ``head`` hold the metric against the parent's
    runs ``parent``, within ``bound``, a share of the parent's median:

    - "regressed": the median is worse than the parent's by more than
      ``bound`` times the parent's median;
    - "unresolved": else, when the parent's quartile distance over its median
      exceeds ``bound``, unless every run of this tree beats every parent run;
    - "held": otherwise.
    """
    before, after = quartiles(parent), quartiles(head)
    worse = before[1] - after[1] if direction == "higher" else after[1] - before[1]
    if worse > bound * abs(before[1]):
        return "regressed"
    beats_all = min(head) > max(parent) if direction == "higher" else max(head) < min(parent)
    if before[2] - before[0] > bound * abs(before[1]) and not beats_all:
        return "unresolved"
    return "held"


def _better(a, b, direction: str) -> bool:
    """Whether the value ``a`` is strictly better than ``b`` in ``direction``."""
    return a > b if direction == "higher" else a < b


def summarize(pairs, better: dict, bounds: dict) -> list:
    """One row per metric of ``better`` (name -> "higher" or "lower"): (name,
    the parent's quartiles, this tree's quartiles, ratio, wins, pairs,
    claimable, the ``verdict`` against the metric's bound in ``bounds``, and
    the pairs whose second run read better).

    ``pairs`` is a list of (parent metrics, this tree's metrics), each a dict
    of metric name -> value, in run order: pair i ran the parent first when i
    is even.  A pair is a win when this tree's value is strictly better, and
    its second run read better when the value of the tree that ran second is
    strictly better; the ratio is this tree's median over the parent's.  A
    gain is claimable when this tree won at least 9 of every 10 pairs, of at
    least 10, and its median is better than the parent's by more than the
    distance between the parent's quartiles.
    """
    rows = []
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        head = [h[name] for _, h in pairs]
        wins = sum(_better(h, p, direction) for p, h in zip(parent, head))
        second = sum(_better(p, h, direction) if i % 2 else _better(h, p, direction)
                     for i, (p, h) in enumerate(zip(parent, head)))
        before, after = quartiles(parent), quartiles(head)
        gain = after[1] - before[1] if direction == "higher" else before[1] - after[1]
        claimable = len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and gain > before[2] - before[0]
        ratio = after[1] / before[1] if before[1] else float("nan")
        status = verdict(parent, head, direction, bounds[name])
        rows.append((name, before, after, ratio, wins, len(pairs), claimable, status, second))
    return rows


def run_bench(tree: Path, workload: str, seed: int, seconds: float, pycache: Path) -> dict:
    """One ``bench/run.py --trace 0`` run in ``tree``, with its bytecode under ``pycache``:
    its metrics, name -> value."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache)),
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: seed {seed} ran incorrectly: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def measure(parent: Path, workload: str, pairs: int, seed: int, seconds: float, pycache: Path) -> list:
    runs = []
    for i in range(pairs):
        order = [("parent", parent), ("head", ROOT)]
        if i % 2:
            order.reverse()
        got = {side: run_bench(tree, workload, seed + i, seconds, pycache) for side, tree in order}
        runs.append((got["parent"], got["head"]))
        print(f"pair {i + 1}/{pairs} (seed {seed + i}, {order[0][0]} first): "
              + ", ".join(f"{n} {got['parent'][n]:.4g} -> {got['head'][n]:.4g}" for n in got["head"]),
              file=sys.stderr)
    return runs


def table(workload: str, runs: list, better: dict, bounds: dict, seed: int, seconds: float) -> str:
    lines = [f"{workload}: {len(runs)} pairs from seed {seed}, {seconds:g} s each",
             f"{'metric':<18} {'parent q1':>10} {'median':>10} {'q3':>10} {'this q1':>10} {'median':>10}"
             f" {'q3':>10} {'ratio':>7}  wins  second  claimable  verdict"]
    for name, parent, head, ratio, wins, n, claimable, status, second in summarize(runs, better, bounds):
        values = " ".join(f"{v:>10.4g}" for v in (*parent, *head))
        lines.append(f"{name:<18} {values} {ratio:>7.3f}  {wins}/{n}  {second}/{n}"
                     f"  {'yes' if claimable else 'no':<9}  {status}")
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload's name, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=None, help="first seed (default: a random one)")
    parser.add_argument("--parent", default="HEAD~1", help="git revision to compare against")
    parser.add_argument("--parent-tree", type=Path, help="an existing checkout of the parent")
    args = parser.parse_args(argv)
    seed = random.randrange(1, 10**6) if args.seed is None else args.seed
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]

    def compare(parent: Path) -> None:
        with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
            for i, name in enumerate(names):
                runs = measure(parent, name, args.pairs, seed, args.seconds, Path(pycache))
                print(("\n" if i else "") + table(name, runs, better, bounds, seed, args.seconds), flush=True)

    if args.parent_tree is not None:
        compare(args.parent_tree.resolve())
    else:
        with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
            tree = Path(tmp) / "parent"
            subprocess.run(["git", "worktree", "add", "--detach", str(tree), args.parent],
                           cwd=ROOT, check=True, capture_output=True)
            try:
                compare(tree)
            finally:
                subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
