"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmark/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODULES = {"partition", "bbdf", "factorize", "model", "matrix", "evaluate", "cli"}
SEED = 3


def _run(workload, trace, cwd=ROOT, script=ROOT / "benchmark" / "run.py"):
    r = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return r


def _result(r):
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: _result(_run(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_its_unit(workload):
    lines, result = _result(_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    printed = {tuple(line.split()[1:4:2]) for line in lines
               if line.startswith("end_to_end ")}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert (m["name"], m["unit"]) in printed
    assert ("failed_frac", "ratio") in printed
    assert ("request_ms.p50", "ms") in printed
    assert ("request_ms.p99", "ms") in printed
    assert any(line.startswith("# env {") for line in lines)


def test_traced_runs_report_per_layer_metrics(traced):
    for lines, result in traced.values():
        assert result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for m in SPEC["per_layer"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_spans_cover_every_module_and_parents_resolve(traced):
    seen = set()
    for workload in traced:
        path = ROOT / ".bench_out" / f"spans-{workload}-s{SEED}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            assert s["end"] >= s["start"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        seen |= {s["name"].split(".")[0] for s in spans}
    assert seen == MODULES


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = _run(WORKLOADS[0], 0, cwd=tmp_path,
             script=tmp_path / "benchmark" / "run.py")
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout
