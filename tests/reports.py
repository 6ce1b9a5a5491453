"""The report corpus: every method's report on a fixed set of pairs.

    PYTHONPATH=src python3 tests/reports.py

rewrites tests/reports.jsonl, one line per pair with sorted keys: the
pair's name, each method's to_dict(explain=True) (the formula, Koszul
and full CE reports) and validate_pair(pair).describe().  The pairs are
the 28-pair pairgen.suite(), the benchmark's catalog ladder, its
cochain draws for seeds 1-10 and its fullvector pairs.  test_reports.py
recomputes every line and names the pair and key of any difference, so
a change that alters a report on purpose rewrites the file and shows the
difference as its diff.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PATH = os.path.join(HERE, "reports.jsonl")
COCHAIN_SEEDS = range(1, 11)

sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import pairgen  # noqa: E402
import workloads  # noqa: E402
from liecoh import catalog  # noqa: E402
from liecoh.betti import betti_low  # noqa: E402
from liecoh.ce import betti_ce  # noqa: E402
from liecoh.cli import _json_default  # noqa: E402
from liecoh.koszul import betti_koszul  # noqa: E402
from liecoh.pairs import HomogeneousPair, validate_pair  # noqa: E402


def pairs():
    """(name, pair) for every pair of the corpus, in file order."""
    out = [("suite/%s" % label, pair) for label, pair in pairgen.suite()]
    out += [("ladder/%s" % name, catalog.pair_from_name(name))
            for name, _ in workloads.LADDER]
    for seed in COCHAIN_SEEDS:
        drawn = workloads._cochain_draw(random.Random(seed), catalog,
                                        HomogeneousPair)
        out += [("cochain/%d/%s" % (seed, label), pair)
                for label, pair in drawn]
    out += [("fullvector/%s" % name, catalog.pair_from_name(name))
            for name, _, _ in workloads.FULLVECTOR]
    return out


def report(name, pair):
    """The corpus entry of one pair, as a JSON-ready dict."""
    return {"pair": name,
            "validation": validate_pair(pair).describe(),
            "formula": betti_low(pair).to_dict(explain=True),
            "koszul": betti_koszul(pair).to_dict(explain=True),
            "ce": betti_ce(pair).to_dict(explain=True)}


def line(entry):
    return json.dumps(entry, sort_keys=True, default=_json_default)


def main():
    with open(PATH, "w") as fh:
        for name, pair in pairs():
            fh.write(line(report(name, pair)) + "\n")


if __name__ == "__main__":
    main()
