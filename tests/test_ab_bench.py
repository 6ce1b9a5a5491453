"""tools/ab_bench.py: a smoke test of one pair of tiny fullvector runs, the
checkout against itself, on the seed --first-seed names; and its verdicts
read off synthetic runs, without a subprocess."""

import importlib.util
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


def _load_tool():
    """tools/ab_bench.py as a module, read without running it."""
    spec = importlib.util.spec_from_file_location(
        "ab_bench", os.path.join(ROOT, "tools", "ab_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(values):
    """Result objects of runs whose metric "m" takes the given values."""
    return [{"metrics": {"m": {"value": v}}} for v in values]


def _verdict(base, change, better="lower", bound=0.25):
    metric = {"name": "m", "better": better, "bound": bound}
    return _load_tool().summary([metric], _runs(base), _runs(change))["m"]


def test_summary_gives_each_metric_its_verdict():
    base = [10.0, 10.1, 10.2, 9.9, 10.0, 10.3, 10.1, 9.8, 10.0, 10.2]
    # 10 of 10 pairs won, and the medians 1.5 apart, the base's IQR 0.2
    faster = [v - 1.5 for v in base]
    got = _verdict(base, faster)
    assert (got["wins"], got["ties"], got["verdict"]) == (10, 0, "gain")
    # ties count for neither side: 9 wins and a tie still gain, 8 and two
    # ties do not
    assert _verdict(base, faster[:9] + base[9:])["verdict"] == "gain"
    eight = _verdict(base, faster[:8] + base[8:])
    assert (eight["wins"], eight["ties"], eight["verdict"]) == (8, 2, "hold")
    # won in every pair, but by less than the base's interquartile range
    assert _verdict(base, [v - 0.05 for v in base])["verdict"] == "hold"
    # worse by 30 % of the base median against a bound of 25 %
    assert _verdict(base, [v * 1.3 for v in base])["verdict"] == "regressed"
    assert _verdict(base, [v * 1.2 for v in base])["verdict"] == "hold"
    # a side whose interquartile range is more than 25 % of its median
    wide = [5.0, 15.0] * 5
    assert _verdict(wide, faster)["verdict"] == "unresolved"
    assert _verdict(base, wide)["verdict"] == "unresolved"


def test_summary_reads_better_higher_metrics_the_other_way():
    ok = [1.0] * 10
    assert _verdict(ok, [0.9] * 10, "higher", 0.05)["verdict"] == "regressed"
    assert _verdict(ok, [0.97] * 10, "higher", 0.05)["verdict"] == "hold"
    got = _verdict([0.5] * 10, ok, "higher", 0.05)
    assert (got["wins"], got["verdict"]) == (10, "gain")
