"""A/B runs of the benchmark: a base checkout against a changed one.

    python3 tools/ab_bench.py --base ../parent --workload ladder \
        --pairs 10 --seconds 5

--base and --change are source checkouts, each with its own perfbench/
and src/; --change defaults to the checkout this file lives in.  Pair i
(i = 1 .. --pairs) runs `perfbench/run.py --workload W --seed N+i-1
--seconds S --trace 0` in both, N the --first-seed (1 by default), the
base first in odd pairs and the change first in even ones, so a drift in
machine speed falls on both sides alike.  A claim measured on seeds 1-10
is checked again, on seeds not used while writing the change, with
--first-seed 11.  The
one line of standard output is a JSON object: per end-to-end metric of
the change's BENCHMARK.json, each side's median and quartiles, and the
pairs the change wins and ties, "better" read from that file; plus the
seeds run and whether every run checked its answers.  The tool itself
runs no git.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout, workload, seed, seconds, tiny):
    """The result object (the last line) of one end-to-end run."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd + (["--tiny"] if tiny else []), cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("ab_bench: run.py failed in %s (exit %d):\n%s"
                 % (checkout, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """Median and quartiles of the values (all three the value for one)."""
    q1, median, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summary(metrics, base_runs, change_runs):
    """Per metric {"better", "base", "change", "wins", "ties"} from the
    result objects of the paired runs."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        out[name] = {"better": metric["better"], "base": spread(base),
                     "change": spread(change),
                     "wins": sum(sign * (b - c) > 0
                                 for b, c in zip(base, change)),
                     "ties": sum(b == c for b, c in zip(base, change))}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", default=ROOT)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair (default 1)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="only the cheapest ops (smoke test)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.base, args.change):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            parser.error("%s holds no perfbench/run.py" % checkout)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    base_runs, change_runs = [], []
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    for i, seed in enumerate(seeds):
        sides = [(args.base, base_runs), (args.change, change_runs)]
        for checkout, runs in sides[::-1] if i % 2 else sides:
            runs.append(run_once(checkout, args.workload, seed,
                                 args.seconds, args.tiny))
    print(json.dumps({
        "workload": args.workload, "pairs": args.pairs,
        "seeds": list(seeds), "seconds": args.seconds,
        "correct": all(r["correct"] for r in base_runs + change_runs),
        "metrics": summary(metrics, base_runs, change_runs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
