"""Invariant polynomials, the Ψ restriction matrix, and ideal orbits as
the dimension of S²(s*)^H."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
import sympy

from liecoh import catalog, koszul, liealg
from liecoh.ce import relative_complex
from liecoh.invariant_forms import (InvariantFormSpace, _derivation_operator,
                                    action_coordinates, ad_coordinates,
                                    invariant_polynomials, polynomial_product,
                                    psi_analysis, pullback, restricted_btilde)
from liecoh.pairs import HomogeneousPair, decompose
from liecoh.linalg import (Subspace, combination, full_subspace,
                           kernel_basis, kernel_in, minus_identity, rank,
                           trace_gram, transpose)

import pairgen
from pairgen import commutant_by_every_vector, eye, rp4_pair

F = Fraction


def _mat(rows):
    """A dense numpy reference matrix of Fractions."""
    return np.array([[F(x) for x in row] for row in rows], dtype=object)


def _zeros(m, n):
    return _mat([[0] * n for _ in range(m)])


def _columns(m):
    """The columns of a dense matrix as {row: value} dicts."""
    return [{i: m[i, j] for i in range(m.shape[0]) if m[i, j]}
            for j in range(m.shape[1])]


def _nonzeros(m):
    """The nonzero entries of a dense matrix as {(row, col): value}."""
    return {(i, j): m[i, j] for i in range(m.shape[0])
            for j in range(m.shape[1]) if m[i, j]}


def _sym_pairs(m):
    """Index pairs (s, t), s <= t, in lexicographic order: the monomials
    x_s x_t of degree 2, in the order invariant_polynomials numbers them."""
    return list(combinations_with_replacement(range(m), 2))


def _quadratic_form(m):
    """The monomial coefficients of x ↦ xᵀ m x: the diagonal, and
    m[s, t] + m[t, s] on x_s x_t, s < t."""
    return {(s, t): m[s, t] if s == t else m[s, t] + m[t, s]
            for s, t in _sym_pairs(m.shape[0])
            if (m[s, t] if s == t else m[s, t] + m[t, s])}


def test_sym_pairs_and_coords_round_trip():
    # on an abelian h = g every quadratic form is invariant: the monomials
    # x_s x_t are numbered in _sym_pairs order, a symmetric matrix pulls
    # back on the unit columns to its quadratic form, and that form's
    # coordinates give the matrix back
    pair = HomogeneousPair.from_vectors(catalog.build("torus", 3), eye(3))
    space = invariant_polynomials(pair, pair.h, 2)
    pairs = _sym_pairs(3)
    assert pairs == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert list(space.index) == pairs and space.dim == len(pairs)
    form = _mat([[1, 2, 0], [2, 5, F(1, 2)], [0, F(1, 2), -3]])
    (quad,) = pullback([_nonzeros(form)], _columns(_mat(eye(3))))
    assert quad == _quadratic_form(form) == {
        (0, 0): 1, (0, 1): 4, (1, 1): 5, (1, 2): 1, (2, 2): -3}
    (coords,) = space.coordinates([quad])
    back = _zeros(3, 3)
    for j, v in coords.items():
        for (s, t), x in space.form_basis[j].items():
            back[s, t] += v * x if s == t else v * x / 2
            back[t, s] = back[s, t]
    assert (back == form).all()


def test_polynomial_product_merges_sorted_tuples():
    assert polynomial_product({(0,): F(1)}, {(1,): F(1)}) == {(0, 1): 1}
    assert polynomial_product({(1,): F(3)}, {(0,): F(2)}) == {(0, 1): 6}
    assert polynomial_product({(0,): F(3)}, {(0,): F(2)}) == {(0, 0): 6}
    assert polynomial_product({(0, 2): F(1, 2)}, {(1,): 4}) == {(0, 1, 2): 2}
    # (x0 + x1)(x0 - x1) = x0^2 - x1^2: the cross terms cancel
    assert (polynomial_product({(0,): 1, (1,): 1}, {(0,): 1, (1,): -1})
            == {(0, 0): 1, (1, 1): -1})


def test_fixed_vectors_sign_flip_kills_line():
    # the fixed vectors of a subspace are its kernel of gamma - 1
    line = Subspace.span(1, [[1]])
    assert kernel_in(line, [minus_identity([{0: F(-1)}], 1)]).dim == 0
    assert kernel_in(line, [minus_identity([{0: F(1)}], 1)]) is line
    assert kernel_in(line, []) is line


def test_fixed_vectors_rotation_has_no_fixed_plane_vectors():
    plane = Subspace.span(2, [[1, 0], [0, 1]])
    rot = _columns(_mat([[0, -1], [1, 0]]))
    assert kernel_in(plane, [minus_identity(rot, 2)]).dim == 0
    # in the plane of e1 and e0 + e2, diag(-1, 1, -1) fixes the line of
    # e1; diag(1, -1, -1) does not keep the plane and fixes none of its
    # vectors, and kernel_in needs no stable subspace
    half_turns = [[{0: 1}, {1: -1}, {2: -1}], [{0: -1}, {1: 1}, {2: -1}]]
    plane = Subspace.span(3, [[0, 1, 0], [1, 0, 1]])
    fixed = kernel_in(plane, [minus_identity(half_turns[1], 3)])
    assert fixed == Subspace.span(3, [[0, 1, 0]])
    assert kernel_in(plane, [minus_identity(half_turns[0], 3)]).dim == 0
    assert kernel_in(plane, [minus_identity(g, 3)
                             for g in half_turns]).dim == 0


def test_invariant_forms_on_full_su2_is_killing_line():
    pair = HomogeneousPair.from_vectors(catalog.build("su", 2), eye(3))
    space = invariant_polynomials(pair, pair.h, 2)
    assert space.dim == 1
    form = space.form_basis[0]
    # ad-invariant forms on a simple algebra are multiples of the Killing
    # form, which is -8 * identity in this basis: x0^2 + x1^2 + x2^2 up to
    # scale
    scale = form[(0, 0)]
    assert scale != 0
    assert form == {(i, i): scale for i in range(3)}


def test_invariant_forms_on_full_torus_is_all_of_sym2():
    pair = HomogeneousPair.from_vectors(catalog.build("torus", 2), eye(2))
    assert invariant_polynomials(pair, pair.h, 2).dim == 3


def test_invariant_forms_respect_generator():
    pair = catalog.build("example_4_7")
    with_gen = invariant_polynomials(pair, pair.h, 2)
    assert with_gen.dim == 1
    # h is a line and the generator acts on it by -1; quadratic forms on a
    # line are generator-invariant regardless, so stripping the generator
    # changes nothing here
    bare = HomogeneousPair(pair.algebra, pair.h.columns)
    assert invariant_polynomials(bare, bare.h, 2).dim == 1


# basic degrees of the simple algebras: su(n) 2..n, so(2m+1) and sp(m)
# 2, 4, .., 2m, so(2m) 2, 4, .., 2m - 2 and m
BASIC_DEGREES = {"su:3": (2, 3), "su:4": (2, 3, 4), "su:5": (2, 3, 4, 5),
                 "so:5": (2, 4), "so:7": (2, 4, 6), "so:8": (2, 4, 6, 4),
                 "sp:1": (2,), "sp:2": (2, 4), "sp:3": (2, 4, 6)}


def _sums(k, degrees):
    """The ways to write k as a sum of the degrees, with repeats: the
    monomials of degree k in free generators of those degrees."""
    count = [1] + [0] * k
    for d in degrees:
        for total in range(d, k + 1):
            count[total] += count[total - d]
    return count[k]


def test_invariant_polynomials_count_chevalley_basic_degrees():
    # dim S^k(g*)^G on G/G (h = g) is the number of ways to write k as a
    # sum of basic degrees (Chevalley); so(8) in degree 4 holds the
    # Pfaffian besides tr X^4 and (tr X^2)^2.  so(7) in degree 6 and su(5)
    # in degrees 4 and 5 are in reach because only the monomials the
    # half-turns of g's Lie generators fix are built: 4781 of 230230,
    # 1350 of 17550 and 6780 of 98280
    cases = {name: (2, 3, 4) for name in BASIC_DEGREES}
    cases.update({"su:5": (2, 3, 4, 5), "so:7": (2, 3, 4, 6),
                  "so:8": (4,)})
    for name, ks in cases.items():
        alg = catalog.pair_from_name(name).algebra
        pair = HomogeneousPair.from_vectors(alg, eye(alg.n))
        got = [invariant_polynomials(pair, pair.h, k).dim for k in ks]
        assert got == [_sums(k, BASIC_DEGREES[name]) for k in ks], name
    assert _sums(4, BASIC_DEGREES["so:8"]) == 3


def test_a_form_off_the_graded_monomials_is_not_in_the_space(monkeypatch):
    # S²(so(7)*)^H on sphere:7 is built on the squares x_i² alone, which
    # the half-turns of so(7)'s Lie generators fix; a form with a
    # coefficient elsewhere, or a non-invariant one on them, is outside
    # the space: coordinates raises its ValueError, not a KeyError
    pair = catalog.pair_from_name("sphere:7")
    forms = pair.h_forms
    assert list(forms.index) == [(i, i) for i in range(21)]
    (killing,) = forms.form_basis
    assert forms.coordinates([killing]) == [{0: 1}]
    for poly in ({(0, 1): 1}, {(0, 0): 1}, {**killing, (0, 1): 1}):
        with pytest.raises(ValueError, match="escapes the subspace"):
            forms.coordinates([poly])
    # and a restricted factor form that escapes is named as such
    monkeypatch.setattr(pair.algebra, "btilde", lambda i: {(0, 1): 1})
    with pytest.raises(RuntimeError, match="escapes the invariant space"):
        restricted_btilde(pair, forms)


def test_psi_analysis_sphere_3():
    space = psi_analysis(catalog.build("sphere", 3))
    assert (space.dim, space.rank_psi, space.dim_N, space.dim_C) == (1, 1, 1, 0)


def test_psi_analysis_sphere_4():
    space = psi_analysis(catalog.build("sphere", 4))
    assert (space.dim, space.rank_psi, space.dim_N, space.dim_C) == (2, 1, 0, 1)


def test_psi_analysis_flag_su3():
    space = psi_analysis(catalog.pair_from_name("flag_su3"))
    assert (space.dim, space.rank_psi, space.dim_N, space.dim_C) == (3, 1, 0, 2)


def test_psi_rank_kernel_cokernel_identities():
    for name in ("sphere:2", "sphere:5", "example_4_7", "stiefel:5:2"):
        pair = catalog.pair_from_name(name)
        space = psi_analysis(pair)
        r = pair.algebra.r
        assert space.dim_N == r - space.rank_psi
        assert space.dim_C == space.dim - space.rank_psi
        psi = space.psi_matrix
        assert (psi.nrows, psi.ncols) == (space.dim, r)
        assert rank([dict(c) for c in psi.cols.values()], psi.nrows) == \
            space.rank_psi
        # column i holds the coordinates of B̃ᵢ on h∩[g,g] in form_basis:
        # the congruence W = CᵀBC on the carrier's columns C, as the
        # monomial coefficients of W(y, y)
        carrier = decompose(pair).hcapgg
        n = pair.algebra.n
        basis = _mat([[c.get(a, 0) for c in carrier.columns]
                      for a in range(n)]).reshape(n, carrier.dim)
        for i in range(r):
            B = _zeros(n, n)
            for (a, b), v in pair.algebra.btilde(i).items():
                B[a, b] = v
            W = basis.T.dot(B).dot(basis)
            want = {(s, t): W[s, t] if s == t else 2 * W[s, t]
                    for s, t in _sym_pairs(carrier.dim) if W[s, t]}
            got = {}
            for j, v in psi.cols.get(i, {}).items():
                for p, x in space.form_basis[j].items():
                    got[p] = got.get(p, 0) + v * x
            assert {p: x for p, x in got.items() if x} == want


def _ideal_orbits(pair, s):
    """The dense commutant count and dim S²(s*)^H, which must agree."""
    want = commutant_by_every_vector(pair, s)
    assert invariant_polynomials(pair, s, 2).dim == want
    return want


def test_minimal_ideal_count_simple():
    pair = HomogeneousPair.from_vectors(catalog.build("su", 3), eye(8))
    assert _ideal_orbits(pair, pair.h) == pair.h_forms.dim == 1


def test_minimal_ideal_count_two_factors():
    g = catalog.pair_from_name("su:2+su:2").algebra
    pair = HomogeneousPair.from_vectors(g, eye(6))
    assert _ideal_orbits(pair, pair.h) == pair.h_forms.dim == 2


def test_minimal_ideal_count_generator_merges_orbits():
    pair = rp4_pair()
    dec = decompose(pair)
    assert dec.hh.dim == 6
    # h ≅ so(4) has two simple ideals; the component generator swaps them
    assert _ideal_orbits(pair, dec.hh) == 1
    bare = HomogeneousPair(pair.algebra, pair.h.columns)
    assert _ideal_orbits(bare, dec.hh) == 2


def _rotation_swap(R):
    """(x, y) -> (R y, Rᵀ x) on su(2)+su(2): swaps the two ideals."""
    gamma = _zeros(6, 6)
    for a in range(3):
        for b in range(3):
            gamma[a, 3 + b] = R[a, b]
            gamma[3 + a, b] = R[b, a]
    return gamma


def test_minimal_ideal_count_generator_swaps_rotated_ideals():
    g = catalog.pair_from_name("su:2+su:2").algebra
    R = _mat([[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]])
    swap = _rotation_swap(R)
    # a rotation in SO(3) is an automorphism of su(2) in the cyclic basis,
    # so the swap is an automorphism of g
    cols = _columns(swap)
    for i in range(6):
        for j in range(6):
            assert (combination(cols, g.bracket_sparse({i: F(1)}, {j: F(1)}))
                    == g.bracket_sparse(cols[i], cols[j]))
    # s = g in a basis that mixes both ideals
    mixed = _mat([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 2, 0], [0, 0, 1, 0, 0, 3],
                  [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]).T
    s = Subspace(6, _columns(mixed))
    assert _ideal_orbits(HomogeneousPair(g, s.columns, [cols]), s) == 1
    assert _ideal_orbits(HomogeneousPair(g, s.columns), s) == 2
    # a rotation inside each ideal keeps both orbits
    turn = _zeros(6, 6)
    for a in range(3):
        for b in range(3):
            turn[a, b] = turn[3 + a, 3 + b] = R[a, b]
    assert _ideal_orbits(HomogeneousPair(g, s.columns, [_columns(turn)]),
                         s) == 2


def _random_rational_matrix(rng, m, density):
    return _mat([[F(rng.randrange(-4, 5), rng.randrange(1, 4))
                  if rng.random() < density else 0 for _ in range(m)]
                 for _ in range(m)])


def _sympy_of(poly, xs):
    """A polynomial {index tuple: value} as a sympy expression in xs."""
    return sum((sympy.Rational(v.numerator, v.denominator)
                * sympy.Mul(*(xs[i] for i in mon))
                for mon, v in poly.items()), sympy.Integer(0))


def _random_polynomial(rng, monomials):
    return {mon: v for mon in monomials
            if (v := F(rng.randrange(-4, 5), rng.randrange(1, 4)))}


def _insertions(index, m, degree):
    """The insertions of _derivation_operator on every monomial of a
    degree: for each i, the (power of x_i, position, at) of x_i·x^r for
    every x^r of the degree below, at[j] the position of x_j·x^r."""
    out = {}
    for rest in combinations_with_replacement(range(m), degree - 1):
        at = [index[tuple(sorted(rest + (j,)))] for j in range(m)]
        for i in range(m):
            out.setdefault(i, []).append((rest.count(i) + 1, at[i], at))
    return out


def test_derivation_and_pullback_match_sympy():
    # _derivation_operator is the vector field -sum_ij R_ij x_j d/dx_i and
    # pullback the substitution x -> Cx, on random rational R and C (the
    # suite's denominators) and random polynomials of degree 1 to 3
    rng = random.Random(51)
    for m in (1, 3, 4):
        xs = sympy.symbols("x0:%d" % m)
        for degree in (1, 2, 3):
            index = {mon: t for t, mon in enumerate(
                combinations_with_replacement(range(m), degree))}
            for density in (0.3, 1.0):
                R = _random_rational_matrix(rng, m, density)
                C = _random_rational_matrix(rng, m, density)
                op = _derivation_operator(transpose(_columns(R)),
                                          _insertions(index, m, degree))
                monomials = list(index)
                f = _random_polynomial(rng, monomials)
                expr = _sympy_of(f, xs)
                got = {}
                for mon, v in f.items():
                    for row, w in op.get(index[mon], {}).items():
                        got[monomials[row]] = got.get(monomials[row], 0) + v * w
                field = sum(-_sympy_of({(j,): R[i, j]}, xs)
                            * sympy.diff(expr, xs[i])
                            for i in range(m) for j in range(m) if R[i, j])
                assert sympy.expand(_sympy_of(got, xs) - field) == 0
                image = {xs[i]: _sympy_of({(j,): C[i, j] for j in range(m)
                                           if C[i, j]}, xs)
                         for i in range(m)}
                want = expr.subs(image, simultaneous=True)
                (pulled,) = pullback([f], _columns(C))
                assert sympy.expand(_sympy_of(pulled, xs) - want) == 0


def test_restrict_form_is_the_congruence_on_the_columns():
    # a bilinear form η on n coordinates pulls back through the m columns
    # of an n x m matrix M to the quadratic form of the congruence MᵀηM
    rng = random.Random(52)
    for n, m in ((3, 2), (4, 4), (5, 1)):
        eta = _random_rational_matrix(rng, n, 0.6)
        basis = _mat([[F(rng.randrange(-3, 4), rng.randrange(1, 3))
                       for _ in range(m)] for _ in range(n)])
        (got,) = pullback([_nonzeros(eta)], _columns(basis))
        assert got == _quadratic_form(basis.T.dot(eta).dot(basis))


def _apply_columns(op, vec, rows):
    out = [F(0)] * rows
    for col, entries in op.items():
        for row, v in entries.items():
            out[row] += v * vec[col]
    return out


def test_sparse_invariance_constraints_match_dense_formulas():
    # on the quadratic form q of a symmetric F, the derivation of R gives
    # the quadratic form of -(RᵀF + FR) and the pullback through C minus
    # q that of CᵀFC - F
    rng = random.Random(53)
    for m in (1, 3, 4):
        pairs = _sym_pairs(m)
        index = {p: t for t, p in enumerate(pairs)}
        insertions = _insertions(index, m, 2)
        for density in (0.3, 1.0):
            R = _random_rational_matrix(rng, m, density)
            C = _random_rational_matrix(rng, m, density)
            ad_op = _derivation_operator(transpose(_columns(R)), insertions)
            for _ in range(3):
                A = _random_rational_matrix(rng, m, 0.7)
                Fm = A + A.T
                q = _quadratic_form(Fm)
                vec = [q.get(p, F(0)) for p in pairs]
                want = _quadratic_form(-(R.T.dot(Fm) + Fm.dot(R)))
                assert _apply_columns(ad_op, vec, len(pairs)) == \
                    [want.get(p, 0) for p in pairs]
                (pulled,) = pullback([q], _columns(C))
                diff = {p: pulled.get(p, 0) - q.get(p, 0) for p in pairs}
                assert {p: v for p, v in diff.items() if v} == \
                    _quadratic_form(C.T.dot(Fm).dot(C) - Fm)


def test_form_space_dim_property():
    # on a line, the one monomial of degree 2 is x0^2
    line, index = Subspace.span(2, [[1, 0]]), {(0, 0): 0}
    space = InvariantFormSpace(line, index, full_subspace(1))
    assert space.dim == 1 and space.form_basis == [{(0, 0): 1}]
    assert space.coordinates([{(0, 0): F(3, 2)}]) == [{0: F(3, 2)}]
    assert InvariantFormSpace(line, index,
                              Subspace(1, [], [])).dim == 0


def _every_basis_vector(pair):
    """A copy of pair that imposes h-invariance through every basis
    vector of h instead of its Lie generators."""
    full = HomogeneousPair(pair.algebra, pair.h.columns,
                           pair.generator_columns)
    full.h_lie_generators = list(full.h.columns)
    return full


def _sym_forms_by_equations(pair, carrier):
    """S²(carrier*)^H from the equations RᵀF + FR = 0 for ad x|carrier,
    x over every basis vector of h, and CᵀFC = F per generator, one row
    per entry (s, t), s ≤ t, on the matrix entries F[p] of _sym_pairs."""
    pairs = _sym_pairs(carrier.dim)
    index = {p: t for t, p in enumerate(pairs)}

    def at(a, b):
        return index[(a, b) if a <= b else (b, a)]
    rows = []
    for x in pair.h.columns:
        R = ad_coordinates(pair.algebra, carrier, x)
        for s, t in pairs:
            row = {}
            for u, v in ((s, t), (t, s)):
                # (RᵀF)[u, v] = sum_p R[p, u] F[p, v]
                for p, r in R[u].items():
                    row[at(p, v)] = row.get(at(p, v), 0) + r
            rows.append(row)
    for gcols in pair.generator_columns:
        C = action_coordinates(gcols, carrier)
        for s, t in pairs:
            row = {index[(s, t)]: -1}
            for a, x in C[s].items():
                for b, y in C[t].items():
                    row[at(a, b)] = row.get(at(a, b), 0) + x * y
            rows.append(row)
    return kernel_basis(rows, len(pairs))


def _as_monomial_coefficients(forms, m):
    """A Subspace of symmetric matrix entries F[s, t], s ≤ t, on _sym_pairs,
    as the monomial coefficients of F(x, x): off-diagonal entries twice."""
    pairs = _sym_pairs(m)
    return Subspace.span(len(pairs), [
        {p: v if pairs[p][0] == pairs[p][1] else 2 * v for p, v in c.items()}
        for c in forms.columns])


def _on_every_monomial(forms, degree):
    """The span of forms.form_basis on every monomial of the degree, in
    combinations_with_replacement order: full monomial coordinates,
    whatever monomials the half-turn grading kept."""
    at = {mon: t for t, mon in enumerate(combinations_with_replacement(
        range(forms.carrier.dim), degree))}
    return Subspace(len(at), [
        {at[mon]: v for mon, v in f.items()} for f in forms.form_basis])


def _keyed_bases(cx):
    """The cochain bases of a RelativeComplex with each column keyed by
    its wedge monomials, not by their graded positions."""
    return [basis and [{level[r]: v for r, v in col.items()}
                       for col in basis.columns]
            for basis, level in zip(cx.bases, cx.monomials)]


def test_invariance_under_lie_generators_is_invariance_under_h(monkeypatch):
    # every invariant object built from h's Lie generators equals the one
    # built from every basis vector of h, on the ladder and the suite, in
    # full monomial coordinates: every basis vector grades by its own
    # half-turn too
    found = []
    real = koszul.invariant_polynomials
    monkeypatch.setattr(koszul, "invariant_polynomials",
                        lambda *a: found.append(real(*a)) or found[-1])
    names = ["sphere:4", "sphere:5", "sphere:6", "sphere:7", "stiefel:5:2",
             "flag_su3", "example_4_7"]
    for label, pair in ([(name, catalog.pair_from_name(name))
                         for name in names] + pairgen.suite()):
        alg, h = pair.algebra, pair.h
        dec = decompose(pair)
        for carrier in (h, dec.hcapgg):
            assert (_on_every_monomial(
                invariant_polynomials(pair, carrier, 2), 2)
                    == _as_monomial_coefficients(
                        _sym_forms_by_equations(pair, carrier), carrier.dim)
                    ), label
        # (h*)^H: Rᵀc = 0 per basis vector, Cᵀc = c per generator
        del found[:]
        koszul.build_complex(pair, validate=False)
        rows = [col for x in h.columns for col in ad_coordinates(alg, h, x)]
        rows += [{**col, j: col.get(j, 0) - 1}
                 for gcols in pair.generator_columns
                 for j, col in enumerate(action_coordinates(gcols, h))]
        assert (_on_every_monomial(found[0], 1)
                == kernel_basis(rows, h.dim)), label
        if dec.hh.dim:
            assert (invariant_polynomials(pair, dec.hh, 2).dim
                    == commutant_by_every_vector(pair, dec.hh)), label
        for _, start, stop in alg.factors:
            assert (liealg._simple_ideal_count(
                alg, alg.ideal(range(start, stop)).ad_sparse(), start)
                    == pairgen.factor_commutant(alg, start, stop)), label
        got = relative_complex(pair, validate=False)
        want = relative_complex(_every_basis_vector(pair), validate=False)
        assert _keyed_bases(got) == _keyed_bases(want), label


def _swapped(ads, v):
    """ads in the coordinates with e_0 and e_v exchanged."""
    def sw(i):
        return v if i == 0 else 0 if i == v else i
    cols = [dict(enumerate(R)) if isinstance(R, list) else R for R in ads]
    return [{sw(j): {sw(k): c for k, c in col.items()}
             for j, col in cols[sw(a)].items()} for a in range(len(ads))]


def _certified_anywhere(ads):
    """Whether schur_certified holds with some basis vector put first."""
    return [v for v in range(len(ads))
            if liealg.schur_certified(_swapped(ads, v))]


def test_schur_certificate_is_a_proof():
    # with any basis vector put first, a certified factor has the scalars
    # as its commutant and a certified h has one ideal orbit, on the
    # ladder and the suite; every so(n) factor and simple so(n) h is
    # certified at e_0
    names = ["sphere:%d" % n for n in range(2, 8)] + [
        "stiefel:5:2", "stiefel:6:2", "flag_su3", "example_4_7"]
    simple_h = {"sphere:3", "sphere:5", "sphere:6", "sphere:7", "stiefel:5:2"}
    for label, pair in ([(name, catalog.pair_from_name(name))
                         for name in names] + pairgen.suite()):
        alg = pair.algebra
        for name, start, stop in alg.factors:
            ads = alg.ideal(range(start, stop)).ad_sparse()
            if _certified_anywhere(ads):
                assert pairgen.factor_commutant(alg, start, stop) == 1
            if label.startswith("sphere"):
                assert liealg.schur_certified(ads), (label, name)
        hh = decompose(pair).hh
        ads = [ad_coordinates(alg, hh, x) for x in hh.columns]
        if _certified_anywhere(ads):
            assert commutant_by_every_vector(pair, hh) == 1, label
        if label in simple_h:
            assert liealg.schur_certified(ads), label


def test_schur_certificate_refuses_fused_ideals():
    # a commutant holding both ideal projections is never certified:
    # so(4) in its standard coordinates, su(2)+su(2) read as one algebra,
    # and that sum in the basis that mixes both ideals
    so4 = liealg.LieAlgebra.from_factor_constants(
        0, [("so(4)", 6, catalog._so_constants(4))])
    g = catalog.pair_from_name("su:2+su:2").algebra
    mixed = _mat([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 2, 0], [0, 0, 1, 0, 0, 3],
                  [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]).T
    s = Subspace(6, _columns(mixed))
    for ads in (so4.ideal(range(6)).ad_sparse(), g.ad_sparse(),
                [ad_coordinates(g, s, x) for x in s.columns]):
        assert _certified_anywhere(ads) == []
    assert liealg.schur_certified(g.ideal(range(3)).ad_sparse())


def test_trace_gram_is_the_dense_trace_form():
    # LieAlgebra.killing reads trace(ad sᵢ ad sⱼ) from one transposed pass
    # (linalg.trace_gram); on h = so(7) in sphere:7 it is the trace of the
    # products of the dense ad matrices, and nondegenerate
    pair = catalog.pair_from_name("sphere:7")
    m = pair.h.dim
    ads = [pair.h_ad(t) for t in range(m)]
    dense = [[[R[j].get(i, 0) for j in range(m)] for i in range(m)]
             for R in ads]
    want = [[sum(A[i][k] * B[k][i] for i in range(m) for k in range(m))
             for B in dense] for A in dense]
    assert trace_gram(ads) == want
    assert rank(want, m) == m
