"""Summary arithmetic and result-file reading of tools/bench_pairs.py on fixed inputs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_between_the_sorted_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_parent_iqr():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    change = [p - 0.10 for p in parent]
    s = bench_pairs.summarize(parent, change, "lower")
    assert (s["wins"], s["losses"], s["ties"]) == (10, 0, 0)
    assert s["parent"] == pytest.approx((1.0225, 1.045, 1.0675))
    assert s["gain"]  # medians 0.10 apart, parent IQR 0.045
    # One loss and one tie: 8 of 10 won is below nine tenths.
    worse = change[:8] + [parent[8] + 0.01, parent[9]]
    s = bench_pairs.summarize(parent, worse, "lower")
    assert (s["wins"], s["losses"], s["ties"]) == (8, 1, 1) and not s["gain"]
    # Every pair won, but by less than the parent's own spread.
    s = bench_pairs.summarize(parent, [p - 0.01 for p in parent], "lower")
    assert s["wins"] == 10 and not s["gain"]


def test_higher_is_better_counts_the_other_way():
    s = bench_pairs.summarize([0.5, 0.5, 0.5], [0.6, 0.5, 0.4], "higher")
    assert (s["wins"], s["losses"], s["ties"]) == (1, 1, 1) and not s["gain"]
    s = bench_pairs.summarize([0.5, 0.5, 0.5], [0.6, 0.6, 0.6], "higher")
    assert s["gain"]  # every pair won; the parent's IQR is 0


def test_pairs_must_match():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "lower")


def test_the_per_command_metrics_are_read_from_the_run_result_file(tmp_path):
    out = tmp_path / "perfbench" / "_out"
    out.mkdir(parents=True)
    doc = {"workload": "wifi_graph", "end_to_end": {"command_gmean_s": 0.12},
           "commands_metrics": {"fit_shortest_path_s": 0.09, "fit_popularity_sparse_s": 0.25,
                                "fail_ratio": 0.0, "f1_shortest_path": None}}
    (out / "wifi_graph-seed3-trace0.json").write_text(json.dumps(doc))
    (out / "wifi_graph-seed3-trace1.json").write_text("not read")
    got = bench_pairs.commands_metrics(tmp_path, "wifi_graph", 3)
    assert got == {"fit_shortest_path_s": 0.09, "fit_popularity_sparse_s": 0.25,
                   "fail_ratio": 0.0}
    with pytest.raises(FileNotFoundError):
        bench_pairs.commands_metrics(tmp_path, "wifi_graph", 4)


def test_command_medians_take_each_metric_over_the_runs_that_report_it():
    runs = [{"a_s": 3.0, "b_s": 1.0}, {"a_s": 1.0}, {"a_s": 2.0, "b_s": 4.0}]
    assert bench_pairs.command_medians(runs) == {"a_s": 2.0, "b_s": 2.5}
    assert bench_pairs.command_medians([]) == {}
