"""tools/bench_pairs.py on made-up runs: no benchmark is started."""

import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

BOUNDS = {"jobs_per_s": 0.25, "latency_p50_ms": 0.25, "setup_s": 0.25}


def test_medians_ratio_and_wins_follow_each_metric_direction():
    pairs = [
        ({"jobs_per_s": 500, "latency_p50_ms": 1.5}, {"jobs_per_s": 600, "latency_p50_ms": 1.2}),
        ({"jobs_per_s": 520, "latency_p50_ms": 1.4}, {"jobs_per_s": 510, "latency_p50_ms": 1.4}),
        ({"jobs_per_s": 540, "latency_p50_ms": 1.6}, {"jobs_per_s": 700, "latency_p50_ms": 1.3}),
    ]
    rows = bench_pairs.summarize(pairs, {"jobs_per_s": "higher", "latency_p50_ms": "lower"}, BOUNDS)
    assert [row[0] for row in rows] == ["jobs_per_s", "latency_p50_ms"]
    (_, before, after, ratio, wins, n, claimable, _, second), latency = rows
    assert (before, after, wins, n, claimable) == ((510, 520, 530), (555, 600, 650), 2, 3, False)
    # pairs 0 and 2 ran this tree second and it won them; pair 1 ran the parent second, and it won
    assert second == 3
    assert math.isclose(ratio, 600 / 520)
    # a tie is not a win, nor a second run that read better
    assert (latency[1][1], latency[2][1]) == (1.5, 1.3) and latency[4:7] == (2, 3, False) and latency[8] == 2


def test_an_even_number_of_pairs_takes_the_middle_mean():
    pairs = [({"setup_s": s}, {"setup_s": s / 2}) for s in (0.1, 0.3)]
    [(_, before, after, ratio, wins, n, claimable, _, _)] = bench_pairs.summarize(pairs, {"setup_s": "lower"}, BOUNDS)
    assert math.isclose(before[1], 0.2) and math.isclose(after[1], 0.1) and math.isclose(ratio, 0.5)
    assert (wins, n, claimable) == (2, 2, False)


def test_quartiles_are_inclusive_and_a_single_run_is_all_three():
    assert bench_pairs.quartiles(list(range(1, 10))) == (3, 5, 7)
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)


def _ten_pairs(parent, head):
    return [({"jobs_per_s": p, "latency_p50_ms": 1000 / p}, {"jobs_per_s": h, "latency_p50_ms": 1000 / h})
            for p, h in zip(parent, head)]


def test_a_gain_is_claimable_past_nine_wins_in_ten_and_the_parents_quartiles():
    better = {"jobs_per_s": "higher", "latency_p50_ms": "lower"}
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartiles 102.25 and 106.75
    claim = {
        "ten wins, median up by 5": [p + 5 for p in parent],
        "nine wins": [p + 8 for p in parent[:9]] + [parent[9] - 1],
        "eight wins": [p + 5 for p in parent[:8]] + [p - 1 for p in parent[8:]],
        "ten wins, median up by 4": [p + 4 for p in parent],
    }
    got = {case: [row[6] for row in bench_pairs.summarize(_ten_pairs(parent, head), better, BOUNDS)]
           for case, head in claim.items()}
    assert got == {
        "ten wins, median up by 5": [True, True],
        "nine wins": [True, True],
        "eight wins": [False, False],
        "ten wins, median up by 4": [False, False],
    }
    # every pair won by far, but fewer than ten pairs
    assert bench_pairs.summarize(_ten_pairs(parent[:9], [p * 2 for p in parent[:9]]), better, BOUNDS)[0][6] is False
    # a loss in every pair is never claimable
    assert bench_pairs.summarize(_ten_pairs(parent, [p - 50 for p in parent]), better, BOUNDS)[0][6] is False


def test_a_median_worse_by_more_than_the_bound_regressed():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # median 104.5
    assert bench_pairs.verdict(parent, [p - 10 for p in parent], "higher", 0.1) == "held"  # 10 < 10.45
    assert bench_pairs.verdict(parent, [p - 11 for p in parent], "higher", 0.1) == "regressed"
    assert bench_pairs.verdict(parent, [p + 11 for p in parent], "lower", 0.1) == "regressed"
    assert bench_pairs.verdict(parent, [p - 11 for p in parent], "lower", 0.1) == "held"
    # a regression is one even where the parent's spread is wide
    assert bench_pairs.verdict(parent, [p - 11 for p in parent], "higher", 0.01) == "regressed"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_beats_the_parent():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # quartiles 102.25 and 106.75
    # 4.5 / 104.5 is past a bound of 4 %, within one of 5 %
    assert bench_pairs.verdict(parent, parent, "higher", 0.04) == "unresolved"
    assert bench_pairs.verdict(parent, parent, "higher", 0.05) == "held"
    assert bench_pairs.verdict(parent, [p + 1 for p in parent], "higher", 0.04) == "unresolved"
    assert bench_pairs.verdict(parent, [110] * 10, "higher", 0.04) == "held"
    assert bench_pairs.verdict(parent, [109] * 10, "higher", 0.04) == "unresolved"  # ties the best run
    assert bench_pairs.verdict(parent, [99] * 10, "lower", 0.04) == "held"
    assert bench_pairs.verdict(parent, [105] * 10, "lower", 0.04) == "unresolved"


def test_all_runs_every_workload_and_prints_a_table_each(monkeypatch, capsys, tmp_path):
    """--workload all, on a stand-in for bench/run.py: each workload of BENCHMARK.json in
    order, the same seeds for each, both trees in every pair, and one table per workload."""
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    wins = [("2/2" if m["better"] == "higher" else "0/2") for m in bench["end_to_end"]]
    # this tree doubles every metric: a gain where higher is better, else a regression past every bound
    verdicts = [("held" if m["better"] == "higher" else "regressed") for m in bench["end_to_end"]]
    calls = []

    def fake_run(tree, workload, seed, seconds, pycache):
        calls.append((tree == bench_pairs.ROOT, workload, seed))
        scale = 2.0 if tree == bench_pairs.ROOT else 1.0
        return {name: scale for name in metrics}, {f"{workload} job": 3.0 * scale}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    assert bench_pairs.main(["--workload", "all", "--pairs", "2", "--seed", "5", "--parent-tree", str(tmp_path)]) == 0
    assert [(w, s) for _, w, s in calls] == [(w, s) for w in names for s in (5, 5, 6, 6)]
    assert [head for head, _, _ in calls] == [False, True, True, False] * len(names)
    tables = capsys.readouterr().out.split("\n\n")
    assert [t.splitlines()[0] for t in tables] == [f"{w}: 2 pairs from seed 5, 8 s each" for w in names]
    # pair 0 ran this tree second, pair 1 the parent: the better value came second in one of them
    for name, t in zip(names, tables):
        rows = [r.split() for r in t.splitlines()[2:]]
        assert rows[:len(metrics)] == [[name, "1", "1", "1", "2", "2", "2", "2.000", won, "1/2", "no", held]
                                       for name, won, held in zip(metrics, wins, verdicts)]
        assert rows[len(metrics):] == [["command", "parent", "ms", "this", "ms", "ratio"],
                                       [*name.split(), "job", "3", "6", "2.000"]]


def test_a_run_order_bias_shows_as_second_runs_that_read_better(monkeypatch, tmp_path):
    """Two equal trees on a stand-in whose second run of each pair reads 10 % better: the
    wins split with the run order, and the second run read better in every pair."""
    better = {"jobs_per_s": "higher", "latency_p50_ms": "lower"}
    calls = []

    def fake_run(tree, workload, seed, seconds, pycache):
        calls.append(tree)
        second = len(calls) % 2 == 0
        return {"jobs_per_s": 110.0 if second else 100.0, "latency_p50_ms": 9.0 if second else 10.0}, {}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    runs, _ = bench_pairs.measure(tmp_path, "cli-files", 10, 1, 8.0, tmp_path)
    assert calls == [tmp_path, bench_pairs.ROOT, bench_pairs.ROOT, tmp_path] * 5
    rows = bench_pairs.summarize(runs, better, BOUNDS)
    assert [(row[4], row[5], row[6], row[8]) for row in rows] == [(5, 10, False, 10), (5, 10, False, 10)]
    # the same trees with the bias taken out: no second run reads better
    flat = [(p, p) for p, _ in runs]
    assert [(row[4], row[8]) for row in bench_pairs.summarize(flat, better, BOUNDS)] == [(0, 0), (0, 0)]
    header, *rows = bench_pairs.table("cli-files", runs, better, BOUNDS, 1, 8.0).splitlines()[1:]
    assert header.split()[-4:] == ["wins", "second", "claimable", "verdict"]
    assert [r.split()[-4:-2] for r in rows] == [["5/10", "10/10"], ["5/10", "10/10"]]


def test_one_workload_prints_one_table(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bench_pairs, "run_bench", lambda tree, workload, seed, seconds, pycache: ({"jobs_per_s": 1.0}, {}))
    monkeypatch.setattr(bench_pairs, "summarize", lambda runs, better, bounds: [])
    bench_pairs.main(["--workload", "cli-files", "--pairs", "1", "--seed", "3", "--parent-tree", str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[0] == "cli-files: 1 pairs from seed 3, 8 s each"


def test_every_run_writes_its_bytecode_under_one_fresh_prefix_removed_afterwards(monkeypatch, tmp_path):
    """Both trees' runs get one new PYTHONPYCACHEPREFIX, outside either tree, so neither
    loads bytecode from its own __pycache__; on a stand-in for subprocess.run."""
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0} for m in bench["end_to_end"]}
    line = json.dumps({"correct": True, "failed": 0, "metrics": metrics})
    runs = []

    def fake_subprocess_run(args, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        runs.append((Path(cwd), prefix, prefix.is_dir()))
        return SimpleNamespace(stdout=line + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(bench_pairs, "_detail", lambda tree, workload, seed: {"command_median_ms": {}})
    main = ["--workload", "cli-files", "--pairs", "2", "--seed", "1", "--parent-tree", str(tmp_path)]
    assert bench_pairs.main(main) == 0
    assert [tree for tree, _, _ in runs] == [tmp_path, bench_pairs.ROOT, bench_pairs.ROOT, tmp_path]
    prefixes = {prefix for _, prefix, _ in runs}
    assert len(prefixes) == 1 and all(made for _, _, made in runs)
    (prefix,) = prefixes
    assert not prefix.exists()
    assert bench_pairs.ROOT not in prefix.parents and tmp_path not in prefix.parents
    # a second invocation gets a new prefix
    assert bench_pairs.main(main) == 0
    assert runs[-1][1] != prefix


def test_an_unknown_workload_exits_2_before_any_subprocess_starts(monkeypatch, capsys):
    """A misspelt workload is refused by the option parser, before the parent
    worktree is made or any run is started; on a stand-in for subprocess.run."""
    started = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: started.append(args))
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(["--workload", "cli-file", "--pairs", "1"])
    assert exited.value.code == 2 and started == []
    assert "invalid choice: 'cli-file'" in capsys.readouterr().err


def test_each_commands_median_job_time_is_read_from_the_detail_files(monkeypatch, tmp_path):
    """Stand-in runs that leave a detail file in their tree's bench/results/, as
    bench/run.py does: each command's median over the pairs on both sides, and the
    ratio, under the metrics; a command that not every run timed is left out."""
    parent, head = tmp_path / "parent", tmp_path / "head"
    monkeypatch.setattr(bench_pairs, "ROOT", head)
    line = json.dumps({"correct": True, "failed": 0, "metrics": {"jobs_per_s": {"value": 1.0}}})

    def fake_subprocess_run(args, cwd, env, **kwargs):
        workload, seed = args[args.index("--workload") + 1], int(args[args.index("--seed") + 1])
        ms = {"closed verify": 2.0 * seed, "poset order-complex": seed * (1.0 if cwd == parent else 0.5)}
        if seed == 2:
            ms["homology"] = 1.0
        results = cwd / "bench" / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps({"command_median_ms": ms}))
        return SimpleNamespace(stdout=line + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    runs, commands = bench_pairs.measure(parent, "cli-files", 3, 1, 8.0, tmp_path)
    assert runs == [({"jobs_per_s": 1.0}, {"jobs_per_s": 1.0})] * 3
    assert commands[0] == ({"closed verify": 2.0, "poset order-complex": 1.0},
                           {"closed verify": 2.0, "poset order-complex": 0.5})
    assert bench_pairs.command_rows(commands) == [
        ("closed verify", 4.0, 4.0, 1.0), ("poset order-complex", 2.0, 1.0, 0.5),
    ]
    text = bench_pairs.table("cli-files", runs, {"jobs_per_s": "higher"}, BOUNDS, 1, 8.0, commands)
    header, *rows = text.splitlines()[3:]
    assert header.split() == ["command", "parent", "ms", "this", "ms", "ratio"]
    assert [row.rsplit(maxsplit=3) for row in rows] == [
        ["closed verify", "4", "4", "1.000"], ["poset order-complex", "2", "1", "0.500"],
    ]
