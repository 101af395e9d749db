"""Smoke test of the benchmark: every workload at small n, untraced and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SMALL = {"scraping_fit": 240, "wifi_graph": 200, "score_train": 200, "score_heldout": 600}
SPEC = run.spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_reports_the_listed_metrics(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SLICE_S", 0.0)
    rel = run.import_relanom(run.ROOT)
    doc = run.run_workload(workload, 0, 0.0, trace, tmp_path, sizes=SMALL, rel=rel)
    line = json.loads(run._result_line(doc, trace))
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert line["correct"]
    assert not {f["command"] for f in doc["failures"]} & set(doc["gated_commands"])
    assert line["attempted"] >= len(doc["gated_commands"]) and line["failed"] == 0
    if trace:
        assert doc["per_layer"]["cli.self_s"] > 0.0
        assert not any(hasattr(getattr(module, name), "__wrapped__")
                       for module in (rel.cli, rel.graph, rel.model_io)
                       for name in vars(module))
    else:
        assert all(v["value"] > 0.0 for v in line["metrics"].values())


def test_a_failed_gated_command_makes_the_run_incorrect(tmp_path, monkeypatch):
    # As if a change made the k=10 shortest-path fit fail fast.
    call_cli = run._call_cli
    monkeypatch.setattr(run, "_call_cli", lambda rel, argv: (
        (1, "injected failure") if "--k" in argv else call_cli(rel, argv)))
    monkeypatch.setattr(run, "SETUP_SLICE_S", 0.0)
    doc = run.run_workload("scraping_fit", 0, 0.0, 0, tmp_path, sizes=SMALL)
    line = json.loads(run._result_line(doc, 0))
    assert not line["correct"]
    assert line["failed"] == 1
    assert doc["incorrect_commands"] == ["fit_shortest_path_knn"]


def test_a_failed_probe_counts_in_fail_ratio_only(tmp_path, monkeypatch):
    # The dense shortest-path fit failing, as it does at n=4000 on most seeds.
    call_cli = run._call_cli
    monkeypatch.setattr(run, "_call_cli", lambda rel, argv: (
        (1, "injected failure") if "shortest_path" in argv and "--k" not in argv
        else call_cli(rel, argv)))
    monkeypatch.setattr(run, "SETUP_SLICE_S", 0.0)
    doc = run.run_workload("scraping_fit", 0, 0.0, 0, tmp_path, sizes=SMALL)
    line = json.loads(run._result_line(doc, 0))
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(doc["gated_commands"])
    assert doc["commands_metrics"]["fail_ratio"] == 1 / len(doc["commands"])
    assert doc["failures"] == [
        {"command": "fit_shortest_path", "reason": "injected failure", "count": 1}]


def test_traced_run_fails_when_a_span_never_fires(tmp_path, monkeypatch):
    # A call site that bypasses the wrapped name, as a refactor might.
    rel = run.import_relanom(run.ROOT)
    dijkstra = rel.shortest_path.multi_source_shortest_paths
    monkeypatch.setattr(rel.shortest_path, "multi_source_shortest_paths",
                        lambda *args: dijkstra(*args))
    monkeypatch.setattr(run, "SETUP_SLICE_S", 0.0)
    with pytest.raises(RuntimeError, match="shortest_path.multi_source_shortest_paths"):
        run.run_workload("wifi_graph", 0, 0.0, 1, tmp_path, sizes=SMALL, rel=rel)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [m[0] for m in run.END_TO_END]
    per_layer = [m[:3] for m in run.tracing.PER_LAYER] + [("tracing_overhead_s", "s", "lower")]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        per_layer + run.COMMAND_METRICS)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
