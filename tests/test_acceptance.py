"""Acceptance suite: one test per shipped guarantee, with runtime budgets.

Every expectation here is exact (integer Betti numbers, zero-tolerance
identities); the time limits are wall-clock budgets for the stated inputs.
The terminal summary prints one PASS/FAIL line per criterion (the hook in
conftest.py keys on the test_criterion_<n>_* names).
"""

import time
from math import comb

from liecoh import catalog
from liecoh.betti import betti_low
from liecoh.ce import betti_ce, poincare_check
from liecoh.invariant_forms import invariant_polynomials, psi_analysis
from liecoh.koszul import betti_koszul
from liecoh.liealg import validate
from liecoh.pairs import HomogeneousPair, validate_pair
from liecoh.linalg import Subspace

from pairgen import commutant_by_every_vector, intersect, suite


def _padded(report, top=4):
    b = report.betti
    return [b[k] if k < len(b) else 0 for k in range(top + 1)]


def _free(algebra):
    return HomogeneousPair(algebra, [])


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_criterion_1_spheres():
    for n in range(2, 7):
        pair = catalog.build("sphere", n)
        want = [1, 0, int(n == 2), int(n == 3), int(n == 4)]
        formula, t_f = _timed(betti_low, pair)
        koszul, t_k = _timed(betti_koszul, pair)
        ce, t_c = _timed(betti_ce, pair)
        assert formula.betti == want, "sphere:%d formula" % n
        assert koszul.betti == want, "sphere:%d koszul" % n
        assert _padded(ce) == want, "sphere:%d cochain" % n
        assert t_f < 5.0 and t_k < 5.0, "sphere:%d too slow" % n
        assert t_c < (10.0 if n == 6 else 5.0), \
            "sphere:%d cochain method took %.1fs" % (n, t_c)


def test_criterion_2_example_4_7():
    start = time.perf_counter()
    pair = catalog.build("example_4_7")
    bare = HomogeneousPair(pair.algebra, pair.h.columns)
    for p, want in ((pair, [1, 2, 1, 0, 0]), (bare, [1, 2, 2, 2, 1])):
        assert betti_low(p).betti == want
        assert betti_koszul(p).betti == want
        assert _padded(betti_ce(p)) == want
    assert time.perf_counter() - start < 5.0


def test_criterion_3_group_cases():
    start = time.perf_counter()
    for name in ("su:2", "su:3", "su:2+su:2", "torus:3+su:2"):
        pair = catalog.pair_from_name(name)   # trivial h
        g = pair.algebra
        want_b3 = g.r + comb(g.l, 3)
        assert betti_low(pair).betti[3] == want_b3, name
        assert betti_koszul(pair).betti[3] == want_b3, name
        assert _padded(betti_ce(pair, max_degree=4))[3] == want_b3, name
    assert time.perf_counter() - start < 10.0


def test_criterion_4_flag_su3():
    start = time.perf_counter()
    pair = catalog.pair_from_name("flag_su3")
    ce = betti_ce(pair)
    assert ce.betti == [1, 0, 2, 0, 1 + 1, 0, 1]
    assert poincare_check(ce, 6)
    m = pair.h.dim
    r = pair.algebra.r
    for rep in (betti_low(pair), betti_koszul(pair), ce):
        assert rep.betti[4] - rep.betti[3] == m * (m + 1) // 2 - r == 2
    assert time.perf_counter() - start < 20.0


def test_criterion_5_randomized_agreement():
    start = time.perf_counter()
    pairs = suite()
    assert len(pairs) >= 25
    assert any(p.generator_columns for _, p in pairs)
    for label, pair in pairs:
        # zero-residual structure checks: Jacobi, invariance, closures
        assert validate(pair.algebra).ok, label
        assert validate_pair(pair).ok, label
        formula = betti_low(pair, validate=False)
        # betti_koszul and betti_ce rank their complexes through
        # complex_ranks, which raises if any composite differential fails
        # to vanish, so agreement below also certifies the two chain
        # conditions on every pair
        koszul = betti_koszul(pair, validate=False)
        ce = betti_ce(pair, max_degree=4, validate=False)
        assert formula.betti == koszul.betti == _padded(ce), \
            "%s: formula=%s koszul=%s ce=%s" % (
                label, formula.betti, koszul.betti, _padded(ce))
    assert time.perf_counter() - start < 300.0


def test_criterion_6_kernel_bounds():
    for label, pair in suite():
        g = pair.algebra
        dec = pair.decomposition
        space = psi_analysis(pair)
        r = g.r

        if dec.hcapgg.dim > 0:
            assert space.dim_N <= r - 1, label

        blocks = []
        for name, start_i, stop_i in g.factors:
            blocks.append(Subspace.span(
                g.n, [{t: 1} for t in range(start_i, stop_i)]))
        k = sum(1 for blk in blocks if intersect(pair.h, blk).dim > 0)
        assert space.dim_N <= r - k, \
            "%s: dim N=%d, r=%d, k=%d" % (label, space.dim_N, r, k)

        s = 0
        for _, start_i, stop_i in g.factors:
            hits = any(start_i <= i < stop_i
                       for col in dec.hcapgg.columns for i in col)
            s += int(hits)
        assert space.dim_N >= r - s, \
            "%s: dim N=%d, r=%d, s=%d" % (label, space.dim_N, r, s)

        # connected isotropy: the invariant forms on h split into the full
        # symmetric square of z(h)* plus one Killing line per minimal ideal
        if not pair.generator_columns:
            z = dec.zh.dim
            want = z * (z + 1) // 2
            if dec.hh.dim > 0:
                want += commutant_by_every_vector(pair, dec.hh)
            assert invariant_polynomials(pair, pair.h, 2).dim == want, label


def test_criterion_7_poincare_duality():
    for label, pair in suite():
        if pair.generator_columns:
            continue
        q = pair.algebra.n - pair.h.dim
        if q > 9:
            continue
        rep = betti_ce(pair, validate=False)
        assert poincare_check(rep, q), "%s: %s" % (label, rep.betti)
