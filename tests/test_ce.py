"""Relative cochain-complex oracle: full Betti vectors, caps, exact ranks."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import catalog, ce, invariant_forms, linalg
from liecoh.betti import betti_low
from liecoh.cli import main
from liecoh.ce import (DEFAULT_SIZE_CAP, betti_ce,
                       poincare_check, relative_complex)
from liecoh.koszul import betti_koszul
from liecoh.liealg import LieAlgebra
from liecoh.pairs import HomogeneousPair, validate_pair
from liecoh.linalg import SparseMatrix, Subspace, rank

import pairgen


def _free(algebra):
    return HomogeneousPair(algebra, [])


def test_sphere_2():
    rep = betti_ce(catalog.build("sphere", 2))
    assert rep.betti == [1, 0, 1]
    assert rep.method == "ce"
    assert rep.diagnostics["complex_dims"] == [1, 0, 1]


def test_torus_3_full_wedge_cohomology():
    rep = betti_ce(_free(catalog.build("torus", 3)))
    # flat torus: nothing cancels, cohomology is the whole exterior algebra
    assert rep.betti == [1, 3, 3, 1]
    assert rep.diagnostics["complex_dims"] == [1, 3, 3, 1]


def test_su2_group_manifold():
    rep = betti_ce(_free(catalog.build("su", 2)))
    assert rep.betti == [1, 0, 0, 1]
    # ad e_i has spectrum i{0, +-2}, so its quarter-turn is -1 on the other
    # two basis vectors: three sign matrices, which fix the empty monomial
    # and all three only
    assert rep.diagnostics["complex_dims"] == [1, 0, 0, 1]


def test_example_4_7_generator_cuts_invariants():
    pair = catalog.build("example_4_7")
    with_gen = betti_ce(pair)
    assert with_gen.betti == [1, 2, 1, 0, 0]
    assert with_gen.diagnostics["complex_dims"] == [1, 2, 1, 0, 0]
    bare = betti_ce(HomogeneousPair(pair.algebra, pair.h.columns))
    assert bare.betti == [1, 2, 2, 2, 1]
    assert bare.diagnostics["complex_dims"] == [1, 2, 2, 2, 1]


def test_sphere_5_poincare():
    rep = betti_ce(catalog.build("sphere", 5))
    assert rep.betti == [1, 0, 0, 0, 0, 1]
    assert poincare_check(rep, 5)


def test_flag_su3_full_vector():
    rep = betti_ce(catalog.pair_from_name("flag_su3"))
    assert rep.betti == [1, 0, 2, 0, 2, 0, 1]
    assert poincare_check(rep, 6)
    assert rep.betti[:5] == betti_low(catalog.pair_from_name("flag_su3")).betti


def test_unconstrained_complex_ranks_sparse_differentials():
    pair = _free(catalog.pair_from_name("su:2+su:2").algebra)
    rep = betti_ce(pair)
    assert rep.betti == [1, 0, 0, 2, 0, 0, 1]
    # each su(2) block's complex is [1, 0, 0, 1] (test_su2_group_manifold),
    # so by Kunneth the whole one is (1 + t^3)^2 and every delta vanishes
    assert rep.diagnostics["complex_dims"] == [1, 0, 0, 2, 0, 0, 1]
    assert rep.diagnostics["ranks"] == [0, 0, 0, 0, 0, 0, 0]
    cx = relative_complex(pair, max_degree=6)
    # one differential per degree 0..q, the last into the empty degree q+1
    assert len(cx.deltas) == 7
    assert all(isinstance(d, SparseMatrix) for d in cx.deltas)
    assert cx.bases == [None] * 8


def test_size_cap_argument():
    try:
        betti_ce(catalog.build("sphere", 3), size_cap=2)
    except ValueError as e:
        assert "size cap" in str(e)
    else:
        raise AssertionError("cap ignored")
    # exactly at the cap is fine
    rep = betti_ce(catalog.build("sphere", 3), size_cap=3)
    assert rep.betti == [1, 0, 0, 1]


def test_library_degree_and_cap_follow_the_integer_rule():
    # max_degree and size_cap take what int_field takes and are >= 0;
    # int() used to read "١" as 1, truncate 2.9 and take True and " 4 "
    pair = catalog.build("sphere", 4)
    for field, value in (("max_degree", "١"), ("max_degree", 2.9),
                         ("max_degree", True), ("max_degree", -1),
                         ("max_degree", " 2 "), ("size_cap", " 4 "),
                         ("size_cap", True), ("size_cap", -4),
                         ("size_cap", 4.0)):
        for call in (betti_ce, relative_complex):
            with pytest.raises(ValueError) as info:
                call(pair, **{field: value})
            assert str(info.value) == (
                "%s must be a non-negative integer, not %r" % (field, value))
    assert betti_ce(pair, max_degree="2", size_cap="4").betti == [1, 0, 0]
    assert relative_complex(pair, max_degree=0, size_cap=4).max_degree == 0


def test_default_size_cap_value():
    assert DEFAULT_SIZE_CAP == 14


def test_max_degree_clamp():
    rep = betti_ce(catalog.build("sphere", 4), max_degree=2)
    assert rep.betti == [1, 0, 0]
    assert rep.intermediates == {"quotient_dim": 4, "max_degree": 2}
    # above the quotient dimension just clamps down
    rep = betti_ce(catalog.build("sphere", 2), max_degree=9)
    assert rep.betti == [1, 0, 1]


def test_poincare_check_needs_full_vector():
    rep = betti_ce(catalog.build("sphere", 4), max_degree=2)
    try:
        poincare_check(rep, 4)
    except ValueError as e:
        assert "full" in str(e)
    else:
        raise AssertionError("truncated vector accepted")


def test_relative_complex_structure():
    cx = relative_complex(catalog.build("sphere", 2))
    assert cx.quotient_dim == 2 and cx.max_degree == 2
    assert cx.dims[:3] == [1, 0, 1]
    assert len(cx.deltas) == 3


def _su4_line(coeffs):
    """su:4 over the line sum_i coeffs[i] * e_i."""
    alg = catalog.build("su", 4)
    line = [Fraction(0)] * alg.n
    for i, c in coeffs.items():
        line[i] = Fraction(c)
    return HomogeneousPair.from_vectors(alg, [line])


def test_su4_line_constrained_q14():
    pair = _su4_line({0: 1, 3: Fraction(1, 2)})
    rep = betti_ce(pair, max_degree=4)
    assert rep.intermediates["quotient_dim"] == 14
    assert rep.betti == [1, 0, 1, 0, 0]
    # the turns of the basis vectors that commute with the line shrink the
    # complex by design; the dims are those elimination over every
    # monomial gives
    assert rep.diagnostics["complex_dims"] == [1, 2, 11, 44, 103] == (
        pairgen.invariant_dims_by_elimination(pair, 4))
    assert betti_low(pair).betti == [1, 0, 1, 0, 0]
    assert betti_koszul(pair).betti == [1, 0, 1, 0, 0]


def _sorting_sign(seq):
    """Sign of the permutation that sorts seq, by counting inversions."""
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def _dense_bracket(alg, x, y):
    """[x, y] for coordinate lists, expanded over the whole structure table."""
    out = [Fraction(0)] * alg.n
    for (i, j), terms in alg.table.items():
        w = x[i] * y[j] - x[j] * y[i]
        for k, c in terms:
            out[k] += w * c
    return out


def _projected_constants(pair):
    """F_c([w_a, w_b]) as Fractions, straight from the structure table.

    F is the annihilator of h as a kernel basis and w_j the unit vector at
    its free row j, so F_i(w_j) = delta_ij.
    """
    alg = pair.algebra
    ann = linalg.kernel_basis(pair.h.columns, alg.n)
    unit = [[1 if t == f else 0 for t in range(alg.n)] for f in ann.free]
    return {(a, b): [sum(F_c.get(k, 0) * x for k, x in
                         enumerate(_dense_bracket(alg, unit[a], unit[b])))
                     for F_c in ann.columns]
            for a, b in combinations(range(ann.dim), 2)}


def test_integer_structure_table_scales_every_differential():
    # a line in su:4 whose projected constants have denominators 3 and 5,
    # so their lcm is larger than each of them
    pair = _su4_line({0: 1, 3: Fraction(1, 3), 5: Fraction(1, 5)})
    alg = pair.algebra
    ann, rows = ce._frame(pair)
    table, scale = ce._structure_table(alg, ann, rows)
    proj = _projected_constants(pair)
    dens = {x.denominator for v in proj.values() for x in v if x}
    assert dens == {1, 3, 5} and scale == 15
    assert all(type(v) is int for col in table.values() for v in col.values())
    cx = relative_complex(pair, max_degree=2)
    assert cx.scale == scale
    q = cx.quotient_dim
    ref_ranks = []
    for k in range(3):
        monomials = list(combinations(range(q), k))
        above = list(combinations(range(q), k + 1))
        nxt = cx.bases[k + 1]
        ref_cols = []
        for j, col in enumerate(cx.bases[k].columns):
            form = {monomials[r]: v for r, v in col.items()}
            # (delta f)(w_I) = sum_{s<t} (-1)^(s+t) f([w_s, w_t], w_rest),
            # read on the free rows, where the next basis is the identity
            image = {}
            for pos, row in enumerate(nxt.free):
                mon = above[row]
                total = Fraction(0)
                for s, t in combinations(range(k + 1), 2):
                    rest = mon[:s] + mon[s + 1:t] + mon[t + 1:]
                    for c, f_c in enumerate(proj[(mon[s], mon[t])]):
                        if f_c and c not in rest:
                            key = (c,) + rest
                            total += ((-1) ** (s + t) * _sorting_sign(key)
                                      * f_c * form.get(tuple(sorted(key)), 0))
                if total:
                    image[pos] = total
            assert dict(cx.deltas[k].cols.get(j, ())) == {
                pos: scale * v for pos, v in image.items()}, (k, j)
            ref_cols.append(image)
        ref_ranks.append(rank(ref_cols, nxt.dim))
    rep = betti_ce(pair, max_degree=2)
    assert rep.diagnostics["ranks"] == ref_ranks
    assert rep.betti == [1, 0, 1]


def test_singular_generator_is_rejected():
    base = catalog.build("sphere", 2)
    singular = [{t: 1} for t in range(base.algebra.n)]
    singular[2] = {}
    pair = HomogeneousPair(base.algebra, base.h.columns, [singular])
    with pytest.raises(ValueError, match="generator matrix is singular"):
        relative_complex(pair, validate=False)
    assert not validate_pair(pair).ok


def _ranks_alone(cx):
    """linalg.rank of each differential on its own, through its columns."""
    return [rank([dict(entries) for entries in d.cols.values()], d.nrows)
            for d in cx.deltas]


def test_complex_ranks_equal_each_differential_ranked_alone():
    # (pair, max_degree, whether every entry is integral); the D = 30
    # line of su:4 is cut at degree 4 to keep it cheap
    cases = [(catalog.pair_from_name(name), None, True)
             for name in ("flag_su3", "stiefel:6:2", "example_4_7")]
    cases.append((_su4_line({0: 1, 3: Fraction(1, 3)}), 4, False))
    cases += [(_free(catalog.pair_from_name(name).algebra), None, True)
              for name in ("su:2+su:2", "so:5+torus:1")]
    for pair, top, integral in cases:
        cx = relative_complex(pair, max_degree=top)
        values = [v for d in cx.deltas for col in d.cols.values()
                  for v in col.values()]
        # catalog and full wedge differentials hold ints; the 1/3 line's
        # restricted ones keep non-integral Fractions, so both number
        # types reach complex_ranks
        if integral:
            assert all(type(v) is int for v in values)
        else:
            assert any(type(v) is Fraction and v.denominator > 1
                       for v in values)
        rep = betti_ce(pair, max_degree=top)
        assert rep.diagnostics["ranks"] == _ranks_alone(cx)


def test_ranks_skip_the_columns_the_degree_below_kills(monkeypatch):
    pair = _free(catalog.pair_from_name("so:5+torus:1").algebra)
    cx = relative_complex(pair)
    alone = _ranks_alone(cx)
    real = linalg._int_rows_sparse
    handed = []

    def counted(rows):
        rows = list(rows)
        handed.append(len(rows))
        return real(rows)
    # the pair splits into two blocks, so betti_ce ranks their complexes;
    # the clearing is counted on the whole complex, ranked here directly
    assert betti_ce(pair).diagnostics["ranks"] == alone
    monkeypatch.setattr(linalg, "_int_rows_sparse", counted)
    assert linalg.complex_ranks(cx.deltas) == alone
    # degree k hands the elimination every column off the leading rows of
    # delta_{k-1}'s echelon, zero columns included, and nothing else
    assert handed == [cx.dims[k] - (alone[k - 1] if k else 0)
                      for k in range(len(cx.deltas))]


def _whole(pair, max_degree):
    """Betti numbers, complex dims and ranks of the whole complex of pair."""
    cx = relative_complex(pair, max_degree=max_degree, validate=False)
    ranks = linalg.complex_ranks(cx.deltas)
    betti = [cx.dims[k] - ranks[k] - (ranks[k - 1] if k else 0)
             for k in range(cx.max_degree + 1)]
    return betti, cx.dims[:cx.max_degree + 1], ranks


def test_blocks_multiply_to_the_whole_complex():
    cases = pairgen.suite() + [
        (name, _free(catalog.pair_from_name(name).algebra))
        for name in ("so:5+torus:1", "su:2+su:3", "so:5+su:2+torus:1")]
    cases.append(("example_4_7", catalog.pair_from_name("example_4_7")))
    split = 0
    for label, pair in cases:
        split += len(ce._blocks(pair)) > 1
        for top in (None, 2):
            rep = betti_ce(pair, max_degree=top)
            assert (rep.betti, rep.diagnostics["complex_dims"],
                    rep.diagnostics["ranks"]) == _whole(pair, top), (label, top)
    assert split >= len(cases) // 2


_CATALOG_PAIRS = ["sphere:%d" % n for n in range(2, 8)] + [
    "stiefel:5:2", "stiefel:6:2", "flag_su3", "example_4_7",
    "so:5+torus:1", "su:2+su:3", "so:5+su:2+torus:1", "torus:2+su:2"]


def _reference_cases():
    """(label, pair): the suite, catalog pairs, SU(3)/N(T) and a sheared
    Stiefel pair."""
    return pairgen.suite() + [
        (name, catalog.pair_from_name(name)) for name in _CATALOG_PAIRS] + [
        ("su3/N(T)", pairgen.su_torus_normalizer(3)),
        ("sheared stiefel:5:2", pairgen.sheared(
            catalog.pair_from_name("stiefel:5:2"), 2, 0))]


def test_blocks_are_the_merge_rule_components():
    # union-find joins the same classes the merge rule did, on the pairs
    # (the rule also kept an empty class for an empty group, such as a
    # generator that moves nothing)
    for label, pair in _reference_cases():
        want = [b for b in pairgen.blocks_by_merging(pair) if b]
        assert ce._blocks(pair) == want, label


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.sets(st.integers(0, n - 1), max_size=5), max_size=8))))
def test_components_match_the_merge_rule_on_drawn_groups(case):
    n, groups = case
    assert ce._components(n, groups) == [
        b for b in pairgen.components_by_merging(n, groups) if b]


def test_block_pairs_are_the_rebuilt_pairs():
    # the block algebra read off the parent's table, and shared with
    # validate's factor checks, is the algebra LieAlgebra(...) rebuilds
    # from the renumbered table, and the block pair the same pair
    for label, pair in _reference_cases():
        pair.validation
        for coords in ce._blocks(pair):
            ours = ce._block_pair(pair, coords)
            theirs = pairgen.block_pair_by_rebuilding(pair, coords)
            a, b = ours.algebra, theirs.algebra
            assert (a.l, a.n, a.factors, a.table) == (
                b.l, b.n, b.factors, b.table), (label, coords)
            assert a.ad_sparse() == b.ad_sparse(), (label, coords)
            assert a.killing() == b.killing(), (label, coords)
            assert (ours.h.columns, ours.generator_columns,
                    ours.h_lie_indices, ours.h_closed) == (
                theirs.h.columns, theirs.generator_columns,
                theirs.h_lie_indices, theirs.h_closed), (label, coords)
    # a factor block is the ideal validate built, with its ad_sparse()
    pair = catalog.pair_from_name("so:5+torus:1")
    ads = pair.algebra.ideal(range(1, 11)).ad_sparse()
    assert ce._block_pair(pair, list(range(1, 11))).algebra.ad_sparse() is ads


def test_turns_grade_as_every_candidate_does():
    # a basis candidate that a turn taken before maps from a taken one is
    # skipped (its turn is a conjugate), and the orbit sums are those of
    # taking every candidate; so(5) takes 4 of its 10 and su(3) 4 of its 8
    # (e_0, e_1, the half-turn of e_2 and e_4)
    for label, pair in _reference_cases():
        for coords in ce._blocks(pair):
            block = ce._block_pair(pair, coords)
            ann, _ = ce._frame(block)
            ours = ce._turns(block, ann)[0]
            theirs = pairgen.turns_on_every_candidate(block, ann)
            assert len(ours) <= len(theirs), (label, coords)
            q = ann.dim
            assert ([(reps, sorted(map(sorted, members))) for _, reps, members
                     in linalg.signed_orbits(q, ours, q)]
                    == [(reps, sorted(map(sorted, members))) for _, reps,
                        members in linalg.signed_orbits(q, theirs, q)]
                    ), (label, coords)
    for name, taken, every in (("so:5", 4, 10), ("su:3", 4, 8)):
        pair = _free(catalog.pair_from_name(name).algebra)
        ann, _ = ce._frame(pair)
        assert len(ce._turns(pair, ann)[0]) == taken, name
        assert len(pairgen.turns_on_every_candidate(pair, ann)) == (
            taken + every), name


def test_orbit_sums_span_the_fixed_space_of_every_monomial():
    # on every block of the suite and of the catalog pairs with q <= 10,
    # the orbit sums of each degree span the forms that (gamma* - 1) kills
    # for every turn, eliminated over every monomial with each gamma* F_J
    # read off the sorted images of J; blocks with turns that are not
    # sign matrices are among them
    walked = 0
    for label, pair in _reference_cases():
        for coords in ce._blocks(pair):
            block = ce._block_pair(pair, coords)
            ann, _ = ce._frame(block)
            q, turns = ann.dim, ce._turns(block, ann)[0]
            if q > 10:
                continue
            walked += any(k != j for t in turns for j, (k, _) in enumerate(t))
            for k, (_, reps, members) in enumerate(
                    linalg.signed_orbits(q, turns, q)):
                at = {sum(1 << j for j in c): i for i, c in enumerate(
                    combinations(range(q), k))}
                sums = Subspace.span(len(at), [
                    {at[m]: (-1) ** odd for m, odd in orbit}
                    for orbit in members])
                assert sums.dim == len(reps), (label, coords, k)
                assert sums == pairgen.fixed_space_by_elimination(
                    q, turns, k), (label, coords, k)
    assert walked >= 15, walked


def test_a_generator_moving_two_factors_joins_them():
    # S^2 x S^2 over the half-turn of both factors at once: it negates both
    # degree-2 classes and fixes their product
    alg = catalog.pair_from_name("su:2+su:2").algebra
    signs = [-1, -1, 1, -1, -1, 1]
    gen = [[Fraction(signs[i] if i == j else 0) for j in range(6)]
           for i in range(6)]
    units = [[Fraction(int(i == t)) for i in range(6)] for t in (0, 3)]
    pair = HomogeneousPair.from_vectors(alg, units, [gen])
    assert ce._blocks(pair) == [list(range(6))]
    assert betti_ce(pair).betti == [1, 0, 0, 0, 1]
    # restricted to each factor the half-turn kills its class: two real
    # projective planes, whose product has no degree-4 class
    plane = HomogeneousPair.from_vectors(
        catalog.pair_from_name("su:2").algebra, [units[0][:3]],
        [[row[:3] for row in gen[:3]]])
    assert betti_ce(plane).betti == [1, 0, 0]


def test_su4_group_manifold_full_vector():
    # H*(SU(4)) is exterior on generators of degrees 3, 5 and 7
    poly = [1]
    for d in (3, 5, 7):
        poly = [a + b for a, b in zip(poly + [0] * d, [0] * d + poly)]
    rep = betti_ce(_free(catalog.build("su", 4)), size_cap=15)
    assert rep.betti == poly == [1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1]
    assert poincare_check(rep, 15)
    # the quarter-turn of the diagonal vector H_j = i(E_jj - E_j+1,j+1)
    # turns the root plane (a, b) by (pi/2) alpha_ab(H_j): on its complex
    # coordinates z, z-bar by i^(+-alpha_ab(H_j)).  So the invariants are
    # the monomials in z, z-bar and the 3 diagonal directions whose weight
    # is 0 mod 4 on every H_j, 2^15 / 16 of them; the root vectors' turns
    # cut no further
    planes = list(combinations(range(4), 2))
    weight = {0: 0, 1: 1, 2: -1, 3: 0}       # none, z, z-bar, both
    count = sum(all(sum(weight[c] * ((a == j) - (a == j + 1) - (b == j)
                                     + (b == j + 1))
                        for (a, b), c in zip(planes, choice)) % 4 == 0
                    for j in range(3))
                for choice in product(range(4), repeat=6)) * 2 ** 3
    assert sum(rep.diagnostics["complex_dims"]) == count == 2 ** 11


def _half_turns(alg):
    """{i: the diagonal of exp(pi ad e_i)} for the e_i of alg whose
    half-turn linalg.half_turn_signs accepts: the candidates of h = 0."""
    return {i: signs for i, ad in enumerate(alg.ad_sparse())
            if (signs := linalg.half_turn_signs(ad, alg.n)) is not None}


def test_half_turns_are_exact_sign_automorphisms():
    # every accepted sigma is sympy's exp(pi A), and s_i s_j = s_k whenever
    # c_ij^k != 0; the others are the identity, which grades nothing and
    # is not returned: all of su(2)'s (ad spectrum i{0, +-2}) and 4 of
    # sp(2)'s
    for name, count in (("su:2", 0), ("su:3", 8), ("so:5", 10), ("sp:2", 6)):
        alg = catalog.pair_from_name(name).algebra
        turns = _half_turns(alg)
        assert len(turns) == count, name
        ads = alg.ad_sparse()
        for i in range(alg.n):
            A = sympy.Matrix(alg.n, alg.n,
                             lambda r, c: ads[i].get(c, {}).get(r, 0))
            assert ((sympy.pi * A).exp().applyfunc(sympy.simplify)
                    == sympy.diag(*turns.get(i, [1] * alg.n))), (name, i)
        for signs in turns.values():
            assert all(signs[a] * signs[b] == signs[c]
                       for (a, b), terms in alg.table.items()
                       for c, v in terms if v), name
    # so su(2) grades by its quarter-turns alone, which are sign
    # matrices: the empty monomial and all three (and the empty degree
    # q + 1)
    cx = relative_complex(_free(catalog.pair_from_name("su:2").algebra))
    assert [len(m) for m in cx.monomials] == [1, 0, 0, 1, 0]


def _five_power_half_turns(alg):
    """The half-turns of h = 0 by their definition: e_i is accepted when
    A = ad e_i has A(A^2 + 1)(A^2 + 4) = 0 and exp(pi A) =
    (3 + 8A^2 + 2A^4)/3 is diagonal and not the identity, read on
    A^0 e_j..A^5 e_j."""
    turns = {}
    for i, ad in enumerate(alg.ad_sparse()):
        signs = []
        for j in range(alg.n):
            powers = [{j: 1}]
            for _ in range(5):
                powers.append(linalg.combination(ad, powers[-1]))
            sigma = linalg.combination(powers, {0: 3, 2: 8, 4: 2})  # 3 sigma
            if (linalg.combination(powers, {1: 4, 3: 5, 5: 1})
                    or sigma.keys() != {j}):
                break
            assert sigma[j] in (3, -3)
            signs.append(sigma[j] // 3)
        else:
            if -1 in signs:     # the identity grades nothing
                turns[i] = signs
    return turns


def _five_power_quarter_turns(alg):
    """The quarter-turns of h = 0 by their definition: e_i is accepted when
    A = ad e_i has A(A^2 + 1)(A^2 + 4) = 0 and exp(pi/2 A) =
    (6 + 8A + 7A^2 + 2A^3 + A^4)/6 is a signed permutation other than the
    identity, read on A^0 e_j..A^5 e_j."""
    turns = {}
    for i, ad in enumerate(alg.ad_sparse()):
        turn = []
        for j in range(alg.n):
            powers = [{j: 1}]
            for _ in range(5):
                powers.append(linalg.combination(ad, powers[-1]))
            tau = linalg.combination(powers, {0: 6, 1: 8, 2: 7, 3: 2, 4: 1})
            if (linalg.combination(powers, {1: 4, 3: 5, 5: 1})
                    or len(tau) != 1 or set(tau.values()) - {6, -6}):
                break
            (k, x), = tau.items()
            turn.append((k, x // 6))
        else:
            if turn != [(j, 1) for j in range(alg.n)]:
                turns[i] = turn
    return turns


def test_half_turns_match_the_five_power_definition_on_rescaled_bases():
    # e_i -> s_i e_i turns c_ij^k into c_ij^k s_i s_j / s_k; scales other
    # than +-1 scale ad e_i's spectrum out of i{0, +-1, +-2} (A^2 e_j and
    # A^3 e_j then miss both tests), so most of these algebras reject some
    # candidates, where the catalog bases of su(3) and so(5) reject none.
    # The quarter-turns are checked the same way: a scale other than +-1
    # on a rotation block makes exp(pi/2 A) no signed permutation
    rng = random.Random(5)
    rejecting, graded, quarter = 0, 0, 0
    for name in ("su:2", "su:3", "so:5", "sp:2", "su:2+su:3"):
        g = catalog.pair_from_name(name).algebra
        for _ in range(6):
            s = [Fraction(rng.choice([1, -1, 2, 3, Fraction(1, 2)]))
                 for _ in range(g.n)]
            alg = LieAlgebra(g.l, [(f, stop - start)
                                   for f, start, stop in g.factors], {
                (i, j): [(k, c * s[i] * s[j] / s[k]) for k, c in terms]
                for (i, j), terms in g.table.items()})
            turns = _half_turns(alg)
            assert turns == _five_power_half_turns(alg), (name, s)
            rejecting += len(turns) < alg.n
            graded += bool(turns)
            quarters = {i: t for i, ad in enumerate(alg.ad_sparse())
                        if (t := linalg.quarter_turn(ad, alg.n))}
            assert quarters == _five_power_quarter_turns(alg), (name, s)
            quarter += bool(quarters) and len(quarters) < alg.n
    # all 30 reject a candidate (or find its half-turn the identity, which
    # grades nothing) and 28 accept a grading one; most accept some
    # quarter-turns and reject others
    assert rejecting >= 25 and graded >= 25 and quarter >= 15


def _rotation_blocks(rng, m, weights):
    """An m x m matrix as a {col: column} dict: rotation blocks A e_a =
    t e_b, A e_b = -(w^2 / t) e_a of the given weights w on random disjoint
    pairs, t = +-1, and zero columns on the coordinates left."""
    coords, cols = rng.sample(range(m), m), {}
    for w in weights:
        a, b, t = coords.pop(), coords.pop(), rng.choice([1, -1])
        cols.update({a: {b: t}, b: {a: -w * w * t}})
    return cols


def _sympy_matrix(cols, m):
    return sympy.Matrix(m, m, lambda r, c: cols.get(c, {}).get(r, 0))


def test_quarter_turns_are_exp_of_a_quarter_on_rotation_blocks():
    # on sums of rotation blocks of weights 1 and 2 beside zero columns,
    # the interpolation 1 + (4/3)A + (7/6)A^2 + (1/3)A^3 + (1/6)A^4 is
    # sympy's exp(pi/2 A), a signed permutation, and quarter_turn reads it
    # off the nonzeros; on su(3)'s e_4 and e_5, no sums of rotation blocks,
    # quarter_turn's interpolation is exp(pi/2 A) too
    rng = random.Random(36)
    cases = []
    for _ in range(12):
        m = rng.randint(2, 7)
        weights = [rng.choice([1, 2]) for _ in range(rng.randint(1, m // 2))]
        cases.append((_rotation_blocks(rng, m, weights), m))
    ads = catalog.pair_from_name("su:3").algebra.ad_sparse()
    cases += [(ads[4], 8), (ads[5], 8)]
    for cols, m in cases:
        A = _sympy_matrix(cols, m)
        tau = (sympy.pi / 2 * A).exp().applyfunc(sympy.simplify)
        assert tau == (sympy.eye(m) + sympy.Rational(4, 3) * A
                       + sympy.Rational(7, 6) * A ** 2 + A ** 3 / 3
                       + A ** 4 / 6), cols
        turn = linalg.quarter_turn(cols, m)
        assert turn is not None, cols
        assert all(tau[k, j] == s and sum(map(abs, tau.col(j))) == 1
                   for j, (k, s) in enumerate(turn)), cols


def test_a_quarter_turn_of_eigenvalues_three_i_is_rejected():
    # A e_0 = 3 e_1, A e_1 = -3 e_0 has eigenvalues +-3i: exp(pi/2 A) is
    # the signed permutation e_0 -> -e_1, but A(A^2 + 1)(A^2 + 4) != 0 and
    # the interpolation is no signed permutation, so it is rejected; its
    # half-turn, -1, fails half_turn_signs' test for the same reason
    cols = {0: {1: 3}, 1: {0: -3}}
    A = _sympy_matrix(cols, 2)
    assert (sympy.pi / 2 * A).exp().applyfunc(sympy.simplify) == sympy.Matrix(
        [[0, 1], [-1, 0]])
    interpolated = (sympy.eye(2) + sympy.Rational(4, 3) * A
                    + sympy.Rational(7, 6) * A ** 2 + A ** 3 / 3 + A ** 4 / 6)
    assert interpolated == sympy.Matrix([[4, 5], [-5, 4]])
    assert A * (A ** 2 + sympy.eye(2)) * (A ** 2 + 4 * sympy.eye(2)) != (
        sympy.zeros(2))
    assert linalg.quarter_turn(cols, 2) is None
    assert linalg.quarter_turn({0: {1: 1}, 1: {0: -9}}, 2) is None
    assert linalg.half_turn_signs(cols, 2) is None


def test_the_rotation_test_reads_the_quarter_turn_off_the_nonzeros(
        monkeypatch):
    # every basis vector of so(5), so(8) and su(2) is a sum of rotation
    # blocks, read without a matrix product; of su(3)'s only the 2
    # diagonal ones are, and the interpolation accepts e_4 and e_5 too
    real, products = linalg.combination, []

    def counted(*args):
        products.append(args)
        return real(*args)
    monkeypatch.setattr(linalg, "combination", counted)
    for name, read, interpolated in (("so:5", 10, 0), ("so:8", 28, 0),
                                     ("su:2", 3, 0), ("su:3", 2, 2)):
        alg = catalog.pair_from_name(name).algebra
        got = {"read": [], "interpolated": []}
        for i, ad in enumerate(alg.ad_sparse()):
            del products[:]
            if linalg.quarter_turn(ad, alg.n):
                got["interpolated" if products else "read"].append(i)
        assert len(got["read"]) == read, (name, got)
        assert len(got["interpolated"]) == interpolated, (name, got)
        if name == "su:3":
            assert got == {"read": [0, 1], "interpolated": [4, 5]}


def _sign_blocks(rng, m):
    """An m x m matrix as a {col: column} dict: on random disjoint pairs
    a, b of coordinates a rotation block A e_a = t e_b, A e_b = -(w²/t) e_a
    (A² = -w² there, so w = 1 gives signs -1 and w = 2 signs 1) or a
    signed swap A e_a = e_b, A e_b = e_a (A² = 1, no sign matrix), at
    times a 3-cycle with A³ = -1 (no sign matrix either), and zero columns
    on the coordinates left."""
    coords = rng.sample(range(m), m)
    cols = {}
    if m >= 3 and rng.random() < 0.15:
        a, b, c = coords[:3]
        coords = coords[3:]
        cols.update({a: {b: 1}, b: {c: 1}, c: {a: -1}})
    while len(coords) >= 2 and rng.random() < 0.8:
        a, b = coords.pop(), coords.pop()
        kind = rng.choice(["w1", "w1", "w2", "swap"])
        if kind == "swap":
            cols.update({a: {b: 1}, b: {a: 1}})
        else:
            w = 1 if kind == "w1" else 2
            t = rng.choice([1, -1, 2, Fraction(1, 3)])
            cols.update({a: {b: t}, b: {a: -w * w / Fraction(t)}})
    return {j: {r: int(x) if x == int(x) else x for r, x in col.items()}
            for j, col in cols.items()}


def test_half_turn_signs_match_the_every_column_reference():
    # the zero columns of A take sign 1 without a product: on every ad e_i
    # of the catalog algebras through so(8) and su(5), and on random
    # rotation and swap blocks beside zero columns, the signs are those
    # read off A^2 e_j and A^3 e_j for every e_j
    cases = []
    for name in ["so:%d" % n for n in range(3, 9)] + [
            "su:%d" % n for n in range(2, 6)] + ["sp:2", "sp:3"]:
        alg = catalog.pair_from_name(name).algebra
        cases += [(ad, alg.n) for ad in alg.ad_sparse()]
        cases += [([ad.get(j, {}) for j in range(alg.n)], alg.n)
                  for ad in alg.ad_sparse()[:3]]
    rng = random.Random(34)
    cases += [(_sign_blocks(rng, m), m)
              for m in (rng.randint(1, 9) for _ in range(400))]
    outcomes = {True: 0, False: 0}
    for cols, m in cases:
        want = pairgen.half_turn_signs_on_every_column(cols, m)
        assert linalg.half_turn_signs(cols, m) == want, (cols, m)
        outcomes[want is not None] += 1
    zero_columns = sum(len(c) < m for c, m in cases if isinstance(c, dict))
    assert min(outcomes.values()) > 200 and zero_columns > 400, (
        outcomes, zero_columns)


def test_derivation_column_matches_the_every_image_reference():
    # a column reads the images of the monomial's own bits only: theta's
    # and delta's columns on every monomial are those of testing every
    # image
    pairs = [catalog.pair_from_name(name) for name in (
        "sphere:5", "stiefel:5:2", "flag_su3", "example_4_7")]
    pairs += [pair for _, pair in pairgen.suite(count=8) if pair is not None]
    checked = 0
    for pair in pairs:
        ann, rows = ce._frame(pair)
        theta_mats, _ = ce._frame_actions(pair, ann, rows)
        table, _ = ce._structure_table(pair.algebra, ann, rows)
        q = ann.dim
        for k in range(q + 1):
            for c in combinations(range(q), k):
                mon = sum(1 << j for j in c)
                for images in theta_mats + [table]:
                    assert (ce._derivation_column(images, mon)
                            == pairgen.derivation_column_over_every_image(
                                images, mon))
                    checked += 1
    assert checked > 4000, checked


def test_grading_check_fires_on_a_non_automorphism(monkeypatch, tmp_path,
                                                    capsys):
    # one so(5) sign flipped in the quarter-turn of e_0, the first one
    # tested: it no longer respects the brackets, its square negates
    # another set of coordinates, and delta leaves the graded monomials
    real = linalg.quarter_turn
    flipped = []

    def patched(columns, m):
        turn = real(columns, m)
        if not flipped:
            flipped.append(m)
            turn = [(k, -s if f == 1 else s) for f, (k, s) in enumerate(turn)]
        return turn
    monkeypatch.setattr(ce, "quarter_turn", patched)
    pair = _free(catalog.pair_from_name("so:5").algebra)
    with pytest.raises(RuntimeError, match="does not commute with the "
                       "differential"):
        betti_ce(pair)
    doc = tmp_path / "so5.json"
    doc.write_text(json.dumps(pair.to_dict()))
    del flipped[:]
    assert main(["oracle", str(doc), "--method", "ce"]) == 4
    assert "does not commute with the differential" in capsys.readouterr().err
    assert flipped == [10]
    # a half-turn of su(3) flipped the same way, with the turn check off:
    # delta differs on two members of an orbit, and with delta read at one
    # member only, it leaves the graded monomials of the flipped sign matrix
    real_half = linalg.half_turn_signs
    monkeypatch.setattr(ce, "quarter_turn", real)
    monkeypatch.setattr(ce, "_check_turns", lambda turns, table: None)
    monkeypatch.setattr(ce, "half_turn_signs", lambda columns, m: [
        -s if f == 1 else s for f, s in enumerate(real_half(columns, m))])
    su3 = _free(catalog.pair_from_name("su:3").algebra)
    with pytest.raises(RuntimeError, match="differs on two members"):
        betti_ce(su3)
    monkeypatch.setattr(ce, "_delta_on_orbits", lambda table, orbit, index:
                        ce.on_orbits(ce._derivation_column(
                            table, orbit[0][0]), index))
    with pytest.raises(RuntimeError, match="leaves the graded monomials"):
        betti_ce(su3)


def _row_wise_delta(pair, k):
    """delta_k on full wedge coordinates, {col: {row: Fraction}}, by rows.

    (delta f)(X_0..X_k) = sum_{s<t} (-1)^(s+t) f([X_s, X_t], X_0..X_k
    without X_s, X_t), read on the test vectors, with positions in the
    lexicographic order of the monomials.
    """
    proj = _projected_constants(pair)
    q = pair.algebra.n - pair.h.dim
    index = {mon: pos for pos, mon in enumerate(combinations(range(q), k))}
    op = {}
    for row, mon in enumerate(combinations(range(q), k + 1)):
        for s, t in combinations(range(k + 1), 2):
            rest = mon[:s] + mon[s + 1:t] + mon[t + 1:]
            for c, f_c in enumerate(proj[(mon[s], mon[t])]):
                if f_c and c not in rest:
                    key = (c,) + rest
                    col = op.setdefault(index[tuple(sorted(key))], {})
                    col[row] = (col.get(row, 0)
                                + (-1) ** (s + t) * _sorting_sign(key) * f_c)
    return {j: {r: v for r, v in col.items() if v} for j, col in op.items()}


def _apply(op, col):
    """op {col: {row: value}} applied to one sparse column, zeros dropped."""
    image = {}
    for mid, x in col.items():
        for r, v in op.get(mid, {}).items():
            image[r] = image.get(r, 0) + v * x
    return {r: v for r, v in image.items() if v}


def _lex_positions(q, k):
    """Position of each degree-k monomial bitmask in combinations(range(q),
    k), the order _row_wise_delta numbers them in."""
    return {sum(1 << i for i in mon): pos
            for pos, mon in enumerate(combinations(range(q), k))}


def _orbits(pair, cx):
    """The (index, reps, members) of each degree that relative_complex
    built cx on."""
    ann, _ = ce._frame(pair)
    return linalg.signed_orbits(cx.quotient_dim, ce._turns(pair, ann)[0],
                                cx.max_degree + 1)


def _on_lex(cx, orbits, k, col):
    """A vector on the orbit sums of degree k, the average Q_p = sum of
    (-1)^odd F_m / |O_p| at coordinate p, on the lex positions of every
    monomial."""
    lex, out = _lex_positions(cx.quotient_dim, k), {}
    for p, x in col.items():
        for m, odd in orbits[k][2][p]:
            out[lex[m]] = Fraction((-1) ** odd * x, len(orbits[k][2][p]))
    return out


def test_delta_columns_match_row_wise_definition():
    # unconstrained: every column of every delta_k, D delta Q_p, mapped to
    # every monomial is the row-wise delta of Q_p there.  su(3) keeps 20
    # orbit sums of its 64 monomials and so(5) 4 (in degrees 0, 3, 7, 10,
    # delta = 0)
    for name, sums in (("su:3", 20), ("so:5", 4)):
        pair = _free(catalog.pair_from_name(name).algebra)
        cx = relative_complex(pair)
        orbits = _orbits(pair, cx)
        assert sum(map(len, cx.monomials)) == sums, name
        for k in range(cx.quotient_dim + 1):
            ref = _row_wise_delta(pair, k)
            for j in range(len(cx.monomials[k])):
                want = _apply(ref, _on_lex(cx, orbits, k, {j: 1}))
                got = _on_lex(cx, orbits, k + 1, dict(
                    cx.deltas[k].cols.get(j, ())))
                assert got == {r: cx.scale * x for r, x in want.items()}, (
                    name, k, j)
    # constrained: delta_k applied to the basis, mapped back through the
    # next basis
    pair = catalog.pair_from_name("stiefel:6:2")
    cx = relative_complex(pair)
    orbits = _orbits(pair, cx)
    assert cx.quotient_dim == 9
    for k in range(cx.quotient_dim + 1):
        ref = _row_wise_delta(pair, k)
        for j, col in enumerate(cx.bases[k].columns):
            image = linalg.combination(cx.bases[k + 1].columns, dict(
                cx.deltas[k].cols.get(j, ())))
            assert _on_lex(cx, orbits, k + 1, image) == {
                r: cx.scale * x for r, x in _apply(
                    ref, _on_lex(cx, orbits, k, col)).items()}, (k, j)


def _det(matrix):
    """Determinant of a small square matrix, as a sum over permutations."""
    return sum(_sorting_sign(p) * prod(row[c] for row, c in zip(matrix, p))
               for p in permutations(range(len(matrix))))


def test_theta_columns_match_definition():
    # (theta(Y)f)(w_I) = -sum_s f(w_{i_1}, ..., [Y, w_{i_s}], ...), with
    # F_J(v_1, ..., v_k) = det F_{j_r}(v_t) and brackets over the whole table
    for pair in (catalog.pair_from_name("stiefel:5:2"),
                 catalog.pair_from_name("flag_su3"),
                 _su4_line({0: 1, 3: Fraction(1, 3), 5: Fraction(1, 5)})):
        alg = pair.algebra
        ann, rows = ce._frame(pair)
        theta_mats, _ = ce._frame_actions(pair, ann, rows)
        assert len(theta_mats) == len(pair.h_lie_generators) > 0
        q = ann.dim
        unit = [[1 if t == f else 0 for t in range(alg.n)] for f in ann.free]
        for y, theta in zip(pair.h_lie_generators, theta_mats):
            dense = [y.get(t, 0) for t in range(alg.n)]
            # moved[i][j] = F_j([Y, w_i]); F_j(w_i) is 1 for i = j, else 0
            moved = [[sum(F_j.get(t, 0) * x for t, x in
                          enumerate(_dense_bracket(alg, dense, u)))
                      for F_j in ann.columns] for u in unit]
            for k in (1, 2, 3):
                subs = list(combinations(range(q), k))
                masks = [sum(1 << i for i in mon) for mon in subs]
                for J, mask in zip(subs, masks):
                    ref = {}
                    for pos, I in zip(masks, subs):
                        total = 0
                        for s in range(k):
                            # a unit column w_i with i outside J is zero
                            if set(I[:s] + I[s + 1:]) <= set(J):
                                total -= _det([
                                    [moved[i][j] if t == s else int(i == j)
                                     for t, i in enumerate(I)] for j in J])
                        if total:
                            ref[pos] = total
                    assert ce._derivation_column(theta, mask) == ref, (k, J)


def test_delta_columns_built_only_where_monomials_occur(monkeypatch):
    # delta's column is built for each orbit the invariant basis of its
    # degree reaches, at the orbit's first member and again at its second
    # (the check of _delta_on_orbits), and for nothing else
    real = ce._derivation_column
    built = []

    def counted(images, mon):
        # delta's images are 2-forms, theta's 1-forms
        if any(bits.bit_count() == 2 for col in images.values()
               for bits, _ in col):
            built.append(mon)
        return real(images, mon)
    monkeypatch.setattr(ce, "_derivation_column", counted)
    # SU(4)/N(T): 19 orbit sums, 17 invariant cochains
    pair = pairgen.su_torus_normalizer(4)
    cx = relative_complex(pair, max_degree=6)
    orbits, smaller, again = _orbits(pair, cx), [], 0
    for k in range(7):
        support = {r for col in cx.bases[k].columns for r in col}
        calls = [mon for mon in built if mon.bit_count() == k]
        assert sorted(calls) == sorted(m for r in support
                                       for m, _ in orbits[k][2][r][:2]), k
        assert [orbits[k][2][r][0][0] for r in support] == [
            cx.monomials[k][r] for r in support], k
        again += sum(len(orbits[k][2][r]) > 1 for r in support)
        smaller.append(len(support) < len(cx.monomials[k]))
    assert any(smaller) and again


def test_constrained_bases_are_identity_on_free_rows():
    cx = relative_complex(catalog.pair_from_name("stiefel:5:2"), max_degree=4)
    # V_2(R^5) = SO(5)/SO(3): g/h is R^3 (x) R^2 + R, and the half-turn of
    # the so(2) that commutes with h negates R^3 (x) R^2.  Its SO(3)-
    # invariant forms have dims 1, 0, 1, 4, 1, 0, 1; the half-turn keeps
    # degrees 0, 2, 4, 6 of them, and the R factor doubles them up, so the
    # complex is 1 in every degree (it was 1, 1, 1, 5, 5, 1 on the full
    # wedge).  The quarter-turns of h's Lie generators L_01 and L_02 turn
    # the rows of R^3 (x) R^2 into each other, and that of the so(2) turns
    # the two columns: the orbit sums are the invariant forms themselves,
    # one in each degree (16 graded monomials before)
    assert cx.dims == [1, 1, 1, 1, 1, 1]
    assert [len(m) for m in cx.monomials] == [1, 1, 1, 1, 1, 1]
    for basis in cx.bases:
        for j, col in enumerate(basis.columns):
            assert all(col.get(row, 0) == (1 if i == j else 0)
                       for i, row in enumerate(basis.free))
    assert all(isinstance(d, SparseMatrix) for d in cx.deltas)


def test_torus_normalizer_is_graded_by_its_torus():
    # SU(n)/N(T) is rationally a point.  Every component generator moves
    # the torus, so no basis vector of g passes the candidate test, but the
    # quarter-turn of each diagonal Lie generator H_j of h lies in H^0 and
    # turns the root planes, and the Weyl generators permute them: all are
    # turns of the first kind, so complex_dims are those the whole wedge
    # (64 and 4096 monomials) gives, and the orbit sums are those
    # elimination over every monomial finds.  theta is imposed for H_0
    # only: the Weyl group moves it to span the torus
    for n, dims, sums in (
            (3, [1, 0, 0, 1, 1, 0, 0], [1, 0, 0, 1, 1, 0, 0]),
            (4, [1, 0, 0, 1, 1, 1, 1, 1, 2, 1, 0, 0, 0],
             [1, 0, 0, 1, 2, 3, 3, 1, 2, 3, 0, 0, 0])):
        pair = pairgen.su_torus_normalizer(n)
        rep = betti_ce(pair)
        assert rep.betti == [1] + [0] * (n * n - n), n
        assert rep.diagnostics["complex_dims"] == dims, n
        assert rep.diagnostics["graded_monomials"] == sums, n
        ann, _ = ce._frame(pair)
        turns, thetas, others = ce._turns(pair, ann)
        assert thetas == [False] + [None] * (n - 2) and not others, n
        assert sums == [pairgen.fixed_space_by_elimination(
            n * n - n, turns, k).dim for k in range(n * n - n + 1)], n
        assert betti_low(pair).betti == [1, 0, 0, 0, 0], n
        assert betti_koszul(pair).betti == [1, 0, 0, 0, 0], n
    # sphere:7: the Lie generators L_ab of so(7) connect its 7 indices (the
    # L_ab of a disconnected edge set generate a smaller algebra), and the
    # quarter-turn of L_ab turns x_a into x_b on g/h = R^7: they permute
    # and negate the x_a, so only the empty J and all seven are left
    cx = relative_complex(catalog.pair_from_name("sphere:7"), max_degree=4)
    assert [len(m) for m in cx.monomials] == [1, 0, 0, 0, 0, 0]


def test_turns_that_move_w_off_itself_are_not_taken(monkeypatch):
    # stiefel:5:2 with e_2 replaced by e_2 + e_0 (e_0 = L_01 in h): the
    # turns of the Lie generator L_01 are signed permutations on g/h in the
    # w_j, but [L_01, w] for w = e_2 + e_0 has a part in h, so they move W
    # off itself and need not commute with delta; they are not taken.  No
    # candidate of g passes in this basis either, so the complex is built
    # on all 2^7 monomials, and the answer is S^7's
    pair = pairgen.sheared(catalog.pair_from_name("stiefel:5:2"), 2, 0)
    ann, _ = ce._frame(pair)
    assert ce._turns(pair, ann)[0] == []
    rep = betti_ce(pair)
    assert rep.betti == [1, 0, 0, 0, 0, 0, 0, 1]
    assert rep.diagnostics["graded_monomials"] == [
        comb(7, k) for k in range(8)]
    assert rep.diagnostics["complex_dims"] == [1, 1, 1, 5, 5, 1, 1, 1]


def test_generators_that_are_no_turns_are_imposed_on_orbit_sums():
    # SU(3)/N(T) and example_4_7 in sheared bases: a generator that no
    # longer permutes the w_j up to sign is imposed through its columns
    # summed over each orbit (linalg.summed_on_orbits).  SU(3)/N(T) keeps
    # one Weyl generator as a turn, so its orbits are not single
    # monomials; both complexes are those of the catalog bases
    for base, (a, b), walked in (
            (pairgen.su_torus_normalizer(3), (2, 0), True),
            (catalog.pair_from_name("example_4_7"), (2, 3), False)):
        pair = pairgen.sheared(base, a, b)
        ann, _ = ce._frame(pair)
        turns, _, others = ce._turns(pair, ann)
        assert others
        assert walked == any(
            len(orbit) > 1 for _, _, members in linalg.signed_orbits(
                ann.dim, turns, ann.dim) for orbit in members)
        want, got = betti_ce(base), betti_ce(pair)
        assert (got.betti, got.diagnostics["complex_dims"]) == (
            want.betti, want.diagnostics["complex_dims"])


def _without_graded_monomials(report):
    diagnostics = dict(report.diagnostics)
    return diagnostics.pop("graded_monomials"), diagnostics


def test_grading_by_the_half_turns_of_h_changes_no_invariant(monkeypatch):
    # with h's Lie generators giving no turns (test-only: the candidates of
    # g and the generators still grade CE) every CE report, every Psi form
    # basis and matrix and every Koszul slice is what the grading gives, on
    # the suite and the catalog ladder
    names = ["sphere:%d" % k for k in range(2, 8)] + [
        "stiefel:5:2", "stiefel:6:2", "flag_su3", "example_4_7"]

    def reports():
        out, totals = [], []
        for label, pair in pairgen.suite() + [
                (name, catalog.pair_from_name(name)) for name in names]:
            graded, ce_diag = _without_graded_monomials(betti_ce(pair))
            psi = invariant_forms.psi_analysis(pair)
            out.append((label, ce_diag, psi.form_basis, psi.psi_matrix,
                        betti_koszul(pair).diagnostics))
            totals.append((label, sum(graded)))
        return out, totals
    graded, graded_totals = reports()
    real = ce._turn
    # the turns of h's Lie generators are read on lists of [w_j, Y], those
    # of the basis candidates on ad_sparse()'s dicts
    monkeypatch.setattr(ce, "_turn", lambda cols, m: None if isinstance(
        cols, list) else real(cols, m))
    monkeypatch.setattr(invariant_forms, "half_turn_signs", lambda *a: None)
    ungraded, totals = reports()
    assert graded == ungraded
    assert all(g <= t for (_, g), (_, t) in zip(graded_totals, totals))
    # where h has turns of its own that g's candidates do not give: the
    # spheres (2 of the 2^q monomials), the Stiefel manifolds, and
    # example_4_7, whose line e_3 of su(2) has ad spectrum i{0, +-2}: its
    # half-turn is the identity, its quarter-turn -1 on e_2 and e_4
    shrunk = {label: (g, t) for (label, g), (_, t)
              in zip(graded_totals, totals) if g < t}
    assert {label for label in shrunk if label in names} == {
        "sphere:3", "sphere:4", "sphere:5", "sphere:6", "sphere:7",
        "stiefel:5:2", "stiefel:6:2", "example_4_7"}
    assert shrunk["sphere:7"] == (2, 128)
    # V_2(R^6): g/h = R^4 (x) R^2 + R, the quarter-turn of the so(2) that
    # commutes with h turning the two columns into each other, alone
    assert shrunk["stiefel:6:2"] == (16, 144)


def test_escape_check_fires_on_incomplete_invariant_basis(monkeypatch):
    # stiefel:5:2 has delta of rank 1 from degree 1 onto the one-dimensional
    # degree-2 space; without that direction the image has nowhere to go
    real = ce._invariant_space

    def patched(theta_mats, thetas, gens, orbits):
        basis = real(theta_mats, thetas, gens, orbits)
        if orbits[1] and orbits[1][0].bit_count() == 2:
            return Subspace(basis.ambient_dim, basis.columns[1:],
                            basis.free[1:])
        return basis
    monkeypatch.setattr(ce, "_invariant_space", patched)
    with pytest.raises(RuntimeError, match="invariance projection inconsistent"):
        relative_complex(catalog.pair_from_name("stiefel:5:2"), max_degree=4)


def test_composite_check_fires_on_corrupted_differential(monkeypatch):
    # su(3) with h = 0, one Kunneth block: delta_3 maps its 4 orbit sums
    # onto cocycles of degree 4; one unit added at coordinate 0, which
    # delta_4 does not kill, to the first delta column read there, and the
    # ranks find delta o delta != 0
    real = ce._delta_on_orbits
    added = []

    def patched(table, orbit, index):
        out = real(table, orbit, index)
        if orbit[0][0].bit_count() == 3 and out and not added:
            added.append(orbit)
            out = {**out, 0: out.get(0, 0) + 1}
        return out
    monkeypatch.setattr(ce, "_delta_on_orbits", patched)
    with pytest.raises(RuntimeError,
                       match="differential composite in degree 4 is nonzero"):
        betti_ce(catalog.pair_from_name("su:3"))
    assert added


def test_a_corrupted_raw_delta_column_is_caught_at_a_second_member(
        monkeypatch):
    # su(3) with h = 0: one raw coefficient of delta F_r flipped, r the
    # first member of an orbit of two or more and the coefficient on a
    # monomial of a good orbit, so the average E delta F_r changes; read
    # again at the orbit's second member, delta no longer agrees
    pair = catalog.pair_from_name("su:3")
    ann, rows = ce._frame(pair)
    table, _ = ce._structure_table(pair.algebra, ann, rows)
    orbits = linalg.signed_orbits(8, ce._turns(pair, ann)[0], 9)
    r, m = next((orbit[0][0], mon) for k in range(8)
                for orbit in orbits[k][2] if len(orbit) > 1
                for mon in ce._derivation_column(table, orbit[0][0])
                if orbits[k + 1][0].get(mon, -1) >= 0)
    real = ce._derivation_column

    def patched(images, mon):       # h = 0: only delta is read
        col = real(images, mon)
        return {**col, m: -col[m]} if mon == r else col
    monkeypatch.setattr(ce, "_derivation_column", patched)
    with pytest.raises(RuntimeError, match="differs on two members"):
        betti_ce(pair)


def test_degree_0_check_fires(monkeypatch):
    real = ce._invariant_space

    def patched(theta_mats, thetas, gens, orbits):
        if orbits[1] == [0]:
            return Subspace(1, [], [])
        return real(theta_mats, thetas, gens, orbits)
    monkeypatch.setattr(ce, "_invariant_space", patched)
    with pytest.raises(RuntimeError, match="degree-0 cochain space"):
        relative_complex(catalog.build("sphere", 2))
