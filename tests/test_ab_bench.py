"""Smoke test of tools/ab_bench.py: one pair of tiny fullvector runs, the
checkout against itself, on the seed --first-seed names."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_bench_prints_one_summary_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_bench.py"),
         "--base", ROOT, "--change", ROOT, "--workload", "fullvector",
         "--pairs", "1", "--first-seed", "11", "--seconds", "0.5",
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert (out["workload"], out["pairs"], out["seeds"], out["correct"]) == (
        "fullvector", 1, [11], True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = json.load(fh)["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["better"] == m["better"]
        # one run a side: its value is the median and both quartiles
        for side in ("base", "change"):
            assert got[side]["q1"] == got[side]["median"] == got[side]["q3"]
        assert 0 <= got["wins"] + got["ties"] <= 1
    assert out["metrics"]["ok_frac"]["base"]["median"] == 1.0
