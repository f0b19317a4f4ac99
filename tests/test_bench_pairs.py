"""tools/bench_pairs.py on made-up runs: no benchmark is started."""

import importlib.util
import json
import math
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def test_medians_ratio_and_wins_follow_each_metric_direction():
    pairs = [
        ({"jobs_per_s": 500, "latency_p50_ms": 1.5}, {"jobs_per_s": 600, "latency_p50_ms": 1.2}),
        ({"jobs_per_s": 520, "latency_p50_ms": 1.4}, {"jobs_per_s": 510, "latency_p50_ms": 1.4}),
        ({"jobs_per_s": 540, "latency_p50_ms": 1.6}, {"jobs_per_s": 700, "latency_p50_ms": 1.3}),
    ]
    rows = bench_pairs.summarize(pairs, {"jobs_per_s": "higher", "latency_p50_ms": "lower"})
    assert [row[0] for row in rows] == ["jobs_per_s", "latency_p50_ms"]
    (_, before, after, ratio, wins, n), latency = rows
    assert (before, after, wins, n) == (520, 600, 2, 3)
    assert math.isclose(ratio, 600 / 520)
    # a tie is not a win
    assert latency[1:3] == (1.5, 1.3) and latency[4:] == (2, 3)


def test_an_even_number_of_pairs_takes_the_middle_mean():
    pairs = [({"setup_s": s}, {"setup_s": s / 2}) for s in (0.1, 0.3)]
    [(_, before, after, ratio, wins, n)] = bench_pairs.summarize(pairs, {"setup_s": "lower"})
    assert math.isclose(before, 0.2) and math.isclose(after, 0.1) and math.isclose(ratio, 0.5)
    assert (wins, n) == (2, 2)


def test_all_runs_every_workload_and_prints_a_table_each(monkeypatch, capsys, tmp_path):
    """--workload all, on a stand-in for bench/run.py: each workload of BENCHMARK.json in
    order, the same seeds for each, both trees in every pair, and one table per workload."""
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    wins = [("2/2" if m["better"] == "higher" else "0/2") for m in bench["end_to_end"]]
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree == bench_pairs.ROOT, workload, seed))
        return {name: 2.0 if tree == bench_pairs.ROOT else 1.0 for name in metrics}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    assert bench_pairs.main(["--workload", "all", "--pairs", "2", "--seed", "5", "--parent-tree", str(tmp_path)]) == 0
    assert [(w, s) for _, w, s in calls] == [(w, s) for w in names for s in (5, 5, 6, 6)]
    assert [head for head, _, _ in calls] == [False, True, True, False] * len(names)
    tables = capsys.readouterr().out.split("\n\n")
    assert [t.splitlines()[0] for t in tables] == [f"{w}: 2 pairs from seed 5, 8 s each" for w in names]
    for t in tables:
        rows = [r.split() for r in t.splitlines()[2:]]
        assert rows == [[name, "1", "2", "2.000", won] for name, won in zip(metrics, wins)]


def test_one_workload_prints_one_table(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bench_pairs, "run_bench", lambda tree, workload, seed, seconds: {"jobs_per_s": 1.0})
    monkeypatch.setattr(bench_pairs, "summarize", lambda runs, better: [])
    bench_pairs.main(["--workload", "cli-files", "--pairs", "1", "--seed", "3", "--parent-tree", str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[0] == "cli-files: 1 pairs from seed 3, 8 s each"
