"""Smoke test of the benchmark: a tiny draw of each workload, end to end and traced.

Checks the result line's shape against BENCHMARK.json: every end-to-end
metric (or, traced, every per-layer metric) is printed by name with its
unit, and no op fails.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
    assert env["workload"] == workload and env["seed"] == seed
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}
    for m in wanted:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload,seed", [
    ("ladder", 1), ("cochain", 1), ("cochain", 2), ("fullvector", 1)])
def test_end_to_end_metrics_and_no_failures(workload, seed):
    result = _run(workload, seed, 0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_traced_run_reports_every_layer():
    result = _run("cochain", 1, 1)
    _assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["trace.top_coverage_min"]["value"] >= 0.9
    assert metrics["ce.relative_complex_s"]["value"] > 0
    assert metrics["linalg.kernel_basis.calls"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
