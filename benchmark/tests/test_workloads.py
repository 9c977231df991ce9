"""Every workload at the small size, through run.main's own code path."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK_JSON = Path(run.ROOT / "BENCHMARK.json")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_passes_its_checks(small_run, workload):
    result = small_run(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END_UNITS[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_traced_run_reports_every_layer_metric(small_run):
    result = small_run("track-learned", trace=1)
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == set(run.per_layer_units())
    assert result["absent"] == []
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("tracker.candidate_patch_calls", "tracker.encode_hier_calls",
                 "hierarchy.adapt_calls", "hierarchy.pretrain_s", "synth.generate_sequence_s"):
        assert values[name] > 0, name
    assert values["tracker.step_self_s"] <= values["tracker.step_s"]


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_inputs_depend_only_on_the_seed(tmp_path):
    def make(root, seed):
        return workloads.setup("pretrain", seed, root, workloads.SIZES["small"], None)

    a, b, c = make(tmp_path / "a", 5), make(tmp_path / "b", 5), make(tmp_path / "c", 6)
    frame = "000003.pgm"
    assert (a["aux"][2] / frame).read_bytes() == (b["aux"][2] / frame).read_bytes()
    assert (a["aux"][2] / frame).read_bytes() != (c["aux"][2] / frame).read_bytes()


def test_missing_sources_exit_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "track-learned", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
