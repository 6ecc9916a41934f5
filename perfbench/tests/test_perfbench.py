"""Tests of the benchmark itself, at tiny workload sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import spans  # noqa: E402


def _measure(workload, trace=False):
    lines = []
    result, notes = bench.measure(
        workload, seed=3, seconds=0, trace=trace, tiny=True, log=lines.append
    )
    return result, notes, lines


@pytest.fixture(scope="module", params=bench.WORKLOADS)
def untraced(request):
    return request.param, _measure(request.param)


@pytest.fixture(scope="module", params=bench.WORKLOADS)
def traced(request):
    return request.param, _measure(request.param, trace=True)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric(untraced):
    workload, (result, __, lines) = untraced
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, unit in bench.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
        assert any(
            line.split()[0] == name and line.split()[-1] == unit
            for line in lines
        ), name
    assert any("run_ms_tail is p" in line and " runs" in line for line in lines)


def test_traced_run_prints_every_per_layer_metric(traced):
    workload, (result, __, lines) = traced
    assert result["correct"]
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    for name, unit in bench.PER_LAYER.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.split()[0] == name and line.split()[-1] == unit
            for line in lines
        ), name
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert result["metrics"]["kernel.invocations_per_run"]["value"] > 0


def test_sim_metrics_and_digest_repeat_exactly(untraced):
    workload, (__, first, __) = untraced
    __, second, __ = _measure(workload)
    assert first["sim"] and first["sim"] == second["sim"]
    assert first["digest"] == second["digest"]


def test_traced_spans_nest_with_non_negative_self_time(traced):
    workload, __ = traced
    written = sorted(bench.OUT.glob(f"spans-{workload}-3.jsonl"))
    assert written
    recorded = [
        json.loads(line) for line in written[0].read_text().splitlines()
    ]
    assert {span[0] for span in recorded} >= {"run", "kernel.run"}
    assert spans.nesting_errors(recorded) == []
    assert min(spans.self_times(recorded)) >= 0


def test_self_time_subtracts_union_of_children():
    recorded = [
        ["outer", 0.0, 10.0, -1, "r", None],
        ["a", 1.0, 4.0, 0, "r", None],
        ["b", 3.0, 6.0, 0, "r", None],
        ["c", 5.0, 5.5, 2, "r", None],
    ]
    assert spans.self_times(recorded) == [5.0, 3.0, 2.5, 0.5]
    assert spans.nesting_errors(recorded) == []
    recorded[3][2] = 7.0  # c now ends after its parent b
    assert spans.nesting_errors(recorded)


def test_corrupted_row_fails_the_correctness_check(monkeypatch):
    real_run_child = bench.run_child

    def corrupting(*args, **kwargs):
        report = real_run_child(*args, **kwargs)
        if kwargs.get("sample"):
            key = sorted(report["rows"])[0]
            report["rows"][key] = "corrupted"
        return report

    monkeypatch.setattr(bench, "run_child", corrupting)
    result, __, lines = _measure("cluster")
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("MISMATCHED" in line for line in lines)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "table2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
