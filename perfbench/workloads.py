"""The three workloads: which pair documents each one runs and what they must return.

Every expected answer comes from known topology, not from liecoh:

* ladder: Betti numbers of spheres, a Stiefel manifold, the flag manifold
  of C^3 and the example of section 4.7 of the paper;
* cochain: each slot of the draw is a space whose rational type is known
  (a product of spheres, tori and flag manifolds), so b0..b4 follow from
  its Poincare polynomial whatever line, sign pattern or rotation the seed
  picks;
* fullvector: with h = 0 the quotient is G itself, whose Poincare
  polynomial is (1+t)^l times the product of (1+t^d) over the primitive
  degrees d of the simple factors.

Run as a script, this module is the benchmark's set-up step: it imports
liecoh, builds or draws the pairs for one workload and seed, writes one
JSON document per op, and prints the op list with its own set-up time
(raw, and scaled to the reference speed of speed.py).
"""

import argparse
import json
import os
import random
import sys

import menus
from speed import ProbeClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("ladder", "cochain", "fullvector")

# name -> b0..b4 (spheres; V_2(R^5) is a rational 7-sphere)
LADDER = [
    ("sphere:4", [1, 0, 0, 0, 1]),
    ("sphere:5", [1, 0, 0, 0, 0]),
    ("sphere:6", [1, 0, 0, 0, 0]),
    ("sphere:7", [1, 0, 0, 0, 0]),
    ("stiefel:5:2", [1, 0, 0, 0, 0]),
    ("flag_su3", [1, 0, 2, 0, 2]),
    ("example_4_7", [1, 2, 1, 0, 0]),
]

# name -> (center rank l, primitive degrees of the simple factors)
FULLVECTOR = [
    ("so:5+torus:1", 1, [3, 7]),
    ("su:2+su:3", 0, [3, 3, 5]),
    ("so:5+su:2+torus:1", 1, [3, 7, 3]),
]

# b0..b4 of each cochain slot, from the rational type of the quotient:
#   stiefel:6:2   V_2(R^6) ~ S^4 x S^5
#   flag_halfturn SU(2) x SU(3)/T, the half-turn is inner so acts trivially
#   center_line   (R x su(3)) / center line ~ SU(3) ~ S^3 x S^5
#   factor_line   SU(2)^3 / circle in one factor ~ S^2 x S^3 x S^3
#   diag_su2      T^2 x SU(2)^3 / diagonal SU(2) ~ T^2 x S^3 x S^3
COCHAIN_EXPECT = {
    "stiefel:6:2": [1, 0, 0, 0, 1],
    "flag_halfturn": [1, 0, 2, 1, 2],
    "center_line": [1, 0, 0, 1, 0],
    "factor_line": [1, 0, 1, 2, 0],
    "diag_su2": [1, 2, 1, 2, 4],
}

# the cheapest ops of each workload, for the smoke test
TINY = {
    "ladder": ["sphere:4", "flag_su3", "example_4_7"],
    "cochain": ["factor_line"],
    "fullvector": ["su:2+su:3"],
}


def poincare_betti(l, degrees):
    """Coefficients of (1+t)^l * prod (1+t^d): the Betti vector of G."""
    poly = [1]
    for d in [1] * l + list(degrees):
        out = poly + [0] * d
        for k, c in enumerate(poly):
            out[k + d] += c
        poly = out
    return poly


def _cochain_draw(rng, catalog, HomogeneousPair):
    """One pair per slot; the seed picks factors, lines, sign patterns and rotations."""
    def ambient(name):
        return catalog.pair_from_name(name).algebra

    pairs = [("stiefel:6:2", catalog.pair_from_name("stiefel:6:2"))]

    alg = ambient("su:2+su:3")
    (_, su2, _), (_, su3, _) = alg.factors
    pattern = rng.choice(menus.SIGN_PATTERNS)
    pairs.append(("flag_halfturn", HomogeneousPair.from_vectors(
        alg, [menus.unit(alg.n, su3), menus.unit(alg.n, su3 + 1)],
        [menus.su2_sign_generator(alg.n, su2, pattern)])))

    # the center is one line; rescaling it by the seed would only change
    # the size of the rationals, and with it the cost of the op
    alg = ambient("torus:1+su:3")
    pairs.append(("center_line", HomogeneousPair.from_vectors(
        alg, [menus.unit(alg.n, 0)])))

    alg = ambient("su:2+su:2+su:2")
    _, start, stop = rng.choice(alg.factors)
    pairs.append(("factor_line", HomogeneousPair.from_vectors(
        alg, [menus.random_line(rng, alg.n, start, stop)])))

    alg = ambient("torus:2+su:2+su:2+su:2")
    s1, s2 = rng.sample([start for _, start, _ in alg.factors], 2)
    pairs.append(("diag_su2", HomogeneousPair.from_vectors(
        alg, menus.diagonal_su2(alg.n, s1, s2, rng.choice(menus.ROTATIONS)))))
    return pairs


def build_ops(workload, seed, tiny, out_dir):
    """Write one pair document per op into out_dir; return the op list.

    Each op is {"label", "command", "doc", "expect"}: command "verify"
    expects b0..b4 from every method, command "oracle" expects the full
    Betti vector from the cochain method.
    """
    from liecoh import catalog
    from liecoh.pairs import HomogeneousPair

    rng = random.Random(seed)
    if workload == "ladder":
        items = [(name, "verify", want) for name, want in LADDER]
    elif workload == "fullvector":
        items = [(name, "oracle", poincare_betti(l, degs))
                 for name, l, degs in FULLVECTOR]
    elif workload == "cochain":
        drawn = dict(_cochain_draw(rng, catalog, HomogeneousPair))
        items = [(label, "verify", COCHAIN_EXPECT[label]) for label in drawn]
    else:
        raise ValueError("unknown workload %r" % workload)
    if tiny:
        items = [item for item in items if item[0] in TINY[workload]]
    rng.shuffle(items)

    def document(label):
        if workload == "cochain":
            return drawn[label].to_dict()
        return catalog.emit(label)

    os.makedirs(out_dir, exist_ok=True)
    ops = []
    for pos, (label, command, want) in enumerate(items):
        safe = "".join(c if c.isalnum() else "_" for c in label)
        path = os.path.join(out_dir, "%02d-%s.json" % (pos, safe))
        with open(path, "w") as fh:
            json.dump(document(label), fh)
        ops.append({"label": label, "command": command, "doc": path,
                    "expect": want})
    return ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    with ProbeClock() as clock:
        raw_s, setup_s, ops = clock.time(build_ops, args.workload, args.seed,
                                         args.tiny, args.out)
    print(json.dumps({"setup_s": setup_s, "raw_s": raw_s, "ops": ops}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
