"""The summary of tools/bench_pairs.py, on made-up runs: no benchmark is started."""

import importlib.util
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
