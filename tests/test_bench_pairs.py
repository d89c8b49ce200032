"""The summary of `tools/bench_pairs.py`, on synthetic runs: no benchmark
runs here."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change, metric="peak_rss_mb", workload="iris_grid"):
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, v in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "pair": i, "seed": 100 + i, "side": side,
                         "exit": 0, "correct": True, "metrics": {metric: v}})
    return runs


def _end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def test_summary_counts_pairs_and_takes_the_parents_quartiles(bench_pairs):
    parent = [99.0, 99.5, 99.2, 99.4, 99.1, 99.3, 99.6, 99.0, 99.2, 99.5]
    change = [v - 1.3 for v in parent]
    change[3] = 99.9  # one pair the change loses
    doc = bench_pairs.summarise(_runs(parent, change), _end_to_end())["iris_grid"]
    assert doc["pairs"] == 10 and doc["all_runs_correct_exit_0"]
    rss = doc["peak_rss_mb"]
    assert set(doc) == {"pairs", "all_runs_correct_exit_0", "peak_rss_mb"}
    assert rss["parent"] == pytest.approx({"median": 99.25, "q1": 99.125, "q3": 99.475,
                                           "n": 10})
    assert rss["change_better_pairs"] == "9 of 10"
    assert rss["change_worse_pairs"] == "1 of 10"
    assert rss["bound_rel"] == 0.1
    assert rss["parent_iqr_rel"] == pytest.approx(0.35 / 99.25, abs=1e-5)
    assert rss["median_change_rel"] < -rss["parent_iqr_rel"]
    assert rss["verdict"].startswith("better by more than the parent's IQR")


def test_summary_signs_a_higher_is_better_metric(bench_pairs):
    # ok_share is better when higher: a drop is a positive (worse) change
    doc = bench_pairs.summarise(
        _runs([1.0] * 4, [0.9] * 4, metric="ok_share"), _end_to_end())["iris_grid"]
    share = doc["ok_share"]
    assert share["median_change_rel"] == pytest.approx(0.1)
    assert share["change_worse_pairs"] == "4 of 4"
    assert share["verdict"] == "worse beyond its bound"


def test_summary_calls_a_small_or_unsteady_gain_no_gain(bench_pairs):
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0]
    # better in the median, but by less than the parent's IQR
    doc = bench_pairs.summarise(_runs(parent, [v - 0.01 for v in parent], "wall_s"),
                                _end_to_end())["iris_grid"]
    assert doc["wall_s"]["verdict"] == "not worse"
    # better by far in the median, but in only 4 of 6 pairs
    change = [0.5, 0.5, 0.5, 0.5, 1.3, 1.3]
    doc = bench_pairs.summarise(_runs(parent, change, "wall_s"), _end_to_end())["iris_grid"]
    assert doc["wall_s"]["change_better_pairs"] == "4 of 6"
    assert doc["wall_s"]["verdict"] == "not worse"


def test_summary_flags_a_failed_run_and_skips_unpaired_runs(bench_pairs):
    runs = _runs([0.3, 0.3], [0.3, 0.3], "wall_s")
    runs[1].update(exit=1, correct=False)
    runs.append({"workload": "iris_grid", "pair": 2, "seed": 102, "side": "parent",
                 "exit": 0, "correct": True, "metrics": {"wall_s": 9.0}})
    doc = bench_pairs.summarise(runs, _end_to_end())["iris_grid"]
    assert doc["pairs"] == 2 and not doc["all_runs_correct_exit_0"]
    assert doc["wall_s"]["parent"]["median"] == 0.3
