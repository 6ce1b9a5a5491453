"""liecoh benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports liecoh from ./src).

--trace 0 is the end-to-end run.  It sets up the workload several times in
fresh interpreters (import liecoh, build or draw the pairs, write their
documents) and reports the median set-up time.  Then it runs the ops
through liecoh.cli.main in this process, one after the other: every op
once, then more runs of the ops whose median time still fits in what is
left of --seconds, fewest runs first.  Each op is timed from outside and
its answer checked; an op's time is the median of its runs.  Set-up and
op times are scaled to a reference CPU speed measured while they run
(speed.py); the raw times are kept in the detail file.

--trace 1 is the per-layer run.  It sets up in-process, then runs one pass
of the same ops through liecoh's public calls (the pipeline `verify` and
`oracle --method ce` use) without tracing and one pass with every layer's
public calls wrapped in spans (spans.py).  --seconds does not apply.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it records the environment.  Both, with per-op times,
are also written under .bench_build/perfbench/.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from types import SimpleNamespace

import workloads
from spans import LAYER_CALLS, LINALG_CALLS, LINALG_METHODS, Tracer
from speed import ProbeClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = workloads.ROOT
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPS = 5

ARGV = {"verify": lambda doc: ["verify", doc, "--json"],
        "oracle": lambda doc: ["oracle", doc, "--method", "ce", "--json"]}
VERIFY_METHODS = ("formula", "koszul", "ce")


def _fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


# -- set-up ---------------------------------------------------------------------

def _setup_children(args, out_dir):
    """Run the set-up step SETUP_REPS times in fresh interpreters."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", out_dir] + (["--tiny"] if args.tiny else [])
    times, raw, ops = [], [], None
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            _fail("set-up failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if ops is not None and result["ops"] != ops:
            _fail("set-up is not deterministic for seed %d" % args.seed)
        ops = result["ops"]
        times.append(result["setup_s"])
        raw.append(result["raw_s"])
    return statistics.median(times), raw, ops


# -- answer checks -----------------------------------------------------------------

def _check_verify(op, rc, out):
    if rc != 0:
        return "exit code %d" % rc
    data = json.loads(out)
    if data.get("status") != "pass":
        return "status %r" % data.get("status")
    for method in VERIFY_METHODS:
        got = data.get("methods", {}).get(method, {}).get("betti")
        if got != op["expect"]:
            return "%s gave %s, expected %s" % (method, got, op["expect"])
    return None


def _check_oracle(op, rc, out):
    if rc != 0:
        return "exit code %d" % rc
    got = json.loads(out).get("betti")
    if got != op["expect"]:
        return "ce gave %s, expected %s" % (got, op["expect"])
    return None


CHECK = {"verify": _check_verify, "oracle": _check_oracle}


# -- end-to-end run ------------------------------------------------------------------

def _run_cli(cli, op):
    """(exit code or None, stdout, error or None) of liecoh.cli.main."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return cli.main(ARGV[op["command"]](op["doc"])), out.getvalue(), None
    except (Exception, SystemExit) as exc:
        return None, out.getvalue(), "%s: %s" % (type(exc).__name__, exc)


def _cli_op(clock, cli, op):
    """(raw seconds, scaled seconds, error or None) for one op."""
    raw, scaled, (rc, out, error) = clock.time(_run_cli, cli, op)
    if error is None:
        try:
            error = CHECK[op["command"]](op, rc, out)
        except (ValueError, AttributeError) as exc:
            error = "unreadable output: %s" % exc
    return raw, scaled, error


def _measure(cli, ops, seconds):
    """Every op once, then, while time is left, the op with the fewest runs
    (the cheapest on a tie) among those whose median raw time still fits in
    what is left of `seconds`.  Returns the (raw, scaled, error) runs of
    each op."""
    with ProbeClock() as clock:
        begin = time.perf_counter()
        runs = [[_cli_op(clock, cli, op)] for op in ops]
        while True:
            left = seconds - (time.perf_counter() - begin)
            fits = [i for i in range(len(ops)) if _median(runs[i], 0) <= left]
            if not fits:
                return runs
            i = min(fits, key=lambda i: (len(runs[i]), _median(runs[i], 0)))
            runs[i].append(_cli_op(clock, cli, ops[i]))


def _median(samples, field):
    return statistics.median(sample[field] for sample in samples)


def end_to_end(args, out_dir):
    setup_s, setup_raw, ops = _setup_children(args, out_dir)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from liecoh import cli
    runs = _measure(cli, ops, args.seconds)
    op_s = [_median(samples, 1) for samples in runs]
    failures = [(op["label"], error) for op, samples in zip(ops, runs)
                for _, _, error in samples if error is not None]
    attempted = sum(len(samples) for samples in runs)
    metrics = {
        "wall_s": (sum(op_s), "s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "op_max_s": (max(op_s), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": ((attempted - len(failures)) / attempted, "frac"),
    }
    detail = {"op_count": len(ops), "failures": failures,
              "setup_raw_s": setup_raw,
              "ops": {op["label"]: {"raw_s": [raw for raw, _, _ in samples],
                                    "scaled_s": [sc for _, sc, _ in samples]}
                      for op, samples in zip(ops, runs)}}
    return attempted, len(failures), metrics, detail


# -- traced run ------------------------------------------------------------------------

def _padded(betti, top=4):
    return [betti[k] if k < len(betti) else 0 for k in range(top + 1)]


def _pipeline(mods, op, span):
    """The op as liecoh's public calls; returns an error or None."""
    with span("io.read_doc"):
        with open(op["doc"]) as fh:
            data = json.load(fh)
    with span("pairs.from_dict"):
        pair = mods.pairs.HomogeneousPair.from_dict(data)
    for report in (mods.liealg.validate(pair.algebra),
                   mods.pairs.validate_pair(pair)):
        if not report.ok:
            return "validation failed"
    if op["command"] == "oracle":
        got = {"ce": mods.ce.betti_ce(pair, validate=False).betti}
    else:
        got = {"formula": mods.betti.betti_low(pair, validate=False).betti,
               "koszul": mods.koszul.betti_koszul(pair, validate=False).betti,
               "ce": _padded(mods.ce.betti_ce(pair, max_degree=4,
                                              validate=False).betti)}
    for method, betti in got.items():
        if betti != op["expect"]:
            return "%s gave %s, expected %s" % (method, betti, op["expect"])
    return None


def _pipeline_pass(mods, ops, tracer=None):
    span = tracer.span if tracer else (lambda name: nullcontext())
    start = time.perf_counter()
    errors = []
    for pos, op in enumerate(ops):
        if tracer:
            tracer.op = pos
        with span("op"):
            try:
                errors.append(_pipeline(mods, op, span))
            except Exception as exc:
                errors.append("%s: %s" % (type(exc).__name__, exc))
    return time.perf_counter() - start, errors


def traced(args, out_dir):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import liecoh.cli  # noqa: F401  (loads every layer before wrapping)
    from liecoh import betti, ce, koszul, liealg, pairs
    mods = SimpleNamespace(betti=betti, ce=ce, koszul=koszul, liealg=liealg,
                           pairs=pairs)
    tracer = Tracer()
    tracer.install()
    try:
        ops = workloads.build_ops(args.workload, args.seed, args.tiny, out_dir)
    finally:
        tracer.uninstall()
    plain_wall, _ = _pipeline_pass(mods, ops)
    tracer.install()
    try:
        traced_wall, errors = _pipeline_pass(mods, ops, tracer)
    finally:
        tracer.uninstall()

    busy = tracer.busy()

    def secs(name):
        return busy.get(name, (0, 0.0))[1]

    metrics = {}
    for home, fn in LAYER_CALLS:
        metrics["%s.%s_s" % (home, fn)] = (secs("%s.%s" % (home, fn)), "s")
    metrics["pairs.from_dict_s"] = (secs("pairs.from_dict"), "s")
    metrics["koszul.ranks_s"] = (secs("koszul.betti_koszul")
                                 - secs("koszul.build_complex"), "s")
    metrics["ce.ranks_s"] = (secs("ce.betti_ce") - secs("ce.relative_complex"), "s")
    for name, value in tracer.counts.items():
        metrics[name] = (value, "count")
    wedge = tracer.counts["ce.wedge_dim_sum"]
    metrics["ce.invariant_frac"] = (
        tracer.counts["ce.cochain_dim_sum"] / wedge if wedge else 0.0, "frac")
    names = LINALG_CALLS + ["%s.%s" % m for m in LINALG_METHODS]
    for fn in names:
        calls, seconds = busy.get("linalg." + fn, (0, 0.0))
        metrics["linalg.%s.calls" % fn] = (calls, "count")
        metrics["linalg.%s.busy_s" % fn] = (seconds, "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")
    metrics["trace.top_coverage_min"] = (tracer.top_coverage("op"), "frac")

    self_s = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
    detail = {"op_count": len(ops), "absent": tracer.absent,
              "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "self_s": dict(self_s),
              "failures": [(op["label"], e) for op, e in zip(ops, errors) if e]}
    with open(out_dir + "-spans.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "ops": [op["label"] for op in ops],
                   "spans": tracer.spans}, fh)
    failed = sum(1 for e in errors if e)
    return len(ops), failed, metrics, detail


# -- main -----------------------------------------------------------------------------

def _environment(args):
    import numpy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds, "tiny": args.tiny}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="only the cheapest ops of the workload (smoke test)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "liecoh")):
        _fail("no liecoh sources under %s; run from a source checkout"
              % os.path.join(ROOT, "src"))
    os.environ.pop("LIECOH_SIZE_CAP", None)
    out_dir = os.path.join(WORK, "%s-%d%s" % (args.workload, args.seed,
                                              "-tiny" if args.tiny else ""))
    os.makedirs(out_dir, exist_ok=True)

    run = traced if args.trace else end_to_end
    attempted, failed, metrics, detail = run(args, out_dir)
    env = dict(_environment(args), op_count=detail["op_count"])
    for label, error in detail["failures"]:
        print("perfbench: op %s failed: %s" % (label, error), file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open("%s-trace%d.json" % (out_dir, args.trace), "w") as fh:
        json.dump({"env": env, "detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
