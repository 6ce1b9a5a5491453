"""Invariant symmetric forms, the Ψ restriction matrix, and ideal counting."""

import random
from fractions import Fraction

import numpy as np

from liecoh import catalog, koszul, liealg
from liecoh.ce import relative_complex
from liecoh.invariant_forms import (InvariantFormSpace, _ad_constraint,
                                    _generator_constraint,
                                    action_coordinates, ad_coordinates,
                                    fixed_vectors, invariant_sym_forms,
                                    minimal_ideal_count, psi_analysis,
                                    restrict_form, sym_pairs, vee)
from liecoh.pairs import HomogeneousPair, decompose
from liecoh.linalg import (Subspace, combination, commutant_operator,
                           intersect_kernels, kernel_basis, rank, trace_gram)

import pairgen
from pairgen import eye, rp4_pair

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


def _sym_coords(form, pairs):
    """A dense symmetric matrix flattened to its upper-triangle coordinates."""
    return [form[i, j] for i, j in pairs]


def test_sym_pairs_and_coords_round_trip():
    pairs = sym_pairs(3)
    assert pairs == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    form = _mat([[1, 2, 0], [2, 5, F(1, 2)], [0, F(1, 2), -3]])
    # on the unit columns a form restricts to its upper-triangle
    # coordinates, and those give the matrix back
    coords = restrict_form(_nonzeros(form), _columns(_mat(eye(3))))
    assert coords == {p: form[p] for p in pairs if form[p]}
    back = _zeros(3, 3)
    for (i, j), v in coords.items():
        back[i, j] = back[j, i] = v
    assert (back == form).all()


def test_vee_symmetrized_product():
    v = vee({0: F(1)}, {1: F(1)})
    assert v.get((0, 1)) == 1 and v.get((0, 0), 0) == 0 and v.get((1, 1), 0) == 0
    assert vee({0: F(3)}, {0: F(2)}) == {(0, 0): 12}


def test_restrict_form_is_the_congruence_on_the_columns():
    rng = random.Random(52)
    for n, m in ((3, 2), (4, 4), (5, 1)):
        eta = _random_rational_matrix(rng, n, 0.6)
        eta = eta + eta.T
        basis = _mat([[F(rng.randrange(-3, 4), rng.randrange(1, 3))
                       for _ in range(m)] for _ in range(n)])
        want = basis.T.dot(eta).dot(basis)
        got = restrict_form(_nonzeros(eta), _columns(basis))
        assert got == {p: want[p] for p in sym_pairs(m) if want[p]}


def test_fixed_vectors_sign_flip_kills_line():
    line = Subspace.span(1, [[1]])
    assert fixed_vectors(line, [[{0: F(-1)}]]).dim == 0
    assert fixed_vectors(line, [[{0: F(1)}]]) == line
    assert fixed_vectors(line, []) == line


def test_fixed_vectors_rotation_has_no_fixed_plane_vectors():
    plane = Subspace.span(2, [[1, 0], [0, 1]])
    rot = _mat([[0, -1], [1, 0]])
    assert fixed_vectors(plane, [_columns(rot)]).dim == 0


def test_fixed_vectors_requires_stable_subspace():
    line = Subspace.span(2, [[1, 0]])
    rot = _mat([[0, -1], [1, 0]])
    try:
        fixed_vectors(line, [_columns(rot)])
    except ValueError:
        pass
    else:
        raise AssertionError("unstable subspace accepted")


def test_invariant_forms_on_full_su2_is_killing_line():
    pair = HomogeneousPair(catalog.build("su", 2), eye(3))
    space = invariant_sym_forms(pair, pair.h)
    assert space.dim == 1
    form = space.form_basis[0]
    # ad-invariant forms on a simple algebra are multiples of the Killing
    # form, which is -8 * identity in this basis
    scale = form[(0, 0)]
    assert scale != 0
    assert form == {(i, i): scale for i in range(3)}


def test_invariant_forms_on_full_torus_is_all_of_sym2():
    pair = HomogeneousPair(catalog.build("torus", 2), eye(2))
    assert invariant_sym_forms(pair, pair.h).dim == 3


def test_invariant_forms_respect_generator():
    pair = catalog.build("example_4_7")
    with_gen = invariant_sym_forms(pair, pair.h)
    assert with_gen.dim == 1
    # h is a line and the generator acts on it by -1; quadratic forms on a
    # line are generator-invariant regardless, so stripping the generator
    # changes nothing here
    bare = HomogeneousPair(pair.algebra, pair.h_basis)
    assert invariant_sym_forms(bare, bare.h).dim == 1


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
        # column i holds the coordinates of B̃ᵢ on h∩[g,g] in form_basis
        carrier = decompose(pair).hcapgg
        for i in range(r):
            want = restrict_form(pair.algebra.btilde(i), carrier.columns)
            got = {}
            for j, v in psi.cols.get(i, {}).items():
                for p, x in space.form_basis[j].items():
                    got[p] = got.get(p, 0) + v * x
            assert {p: x for p, x in got.items() if x} == want


def test_minimal_ideal_count_simple():
    pair = HomogeneousPair(catalog.build("su", 3), eye(8))
    assert minimal_ideal_count(pair, pair.h) == 1


def test_minimal_ideal_count_two_factors():
    g = catalog.pair_from_name("su:2+su:2").algebra
    pair = HomogeneousPair(g, eye(6))
    assert minimal_ideal_count(pair, pair.h) == 2


def test_minimal_ideal_count_generator_merges_orbits():
    pair = rp4_pair()
    dec = decompose(pair)
    assert dec.hh.dim == 6
    # h ≅ so(4) has two simple ideals; the component generator swaps them
    assert minimal_ideal_count(pair, dec.hh) == 1
    bare = HomogeneousPair(pair.algebra, pair.h_basis)
    assert minimal_ideal_count(bare, dec.hh) == 2


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
    s = Subspace(6, mixed)
    assert minimal_ideal_count(HomogeneousPair(g, mixed, [swap]), s) == 1
    assert minimal_ideal_count(HomogeneousPair(g, mixed), s) == 2
    # a rotation inside each ideal keeps both orbits
    turn = _zeros(6, 6)
    for a in range(3):
        for b in range(3):
            turn[a, b] = turn[3 + a, 3 + b] = R[a, b]
    assert minimal_ideal_count(HomogeneousPair(g, mixed, [turn]), s) == 2


def _random_rational_matrix(rng, m, density):
    return _mat([[F(rng.randrange(-4, 5), rng.randrange(1, 4))
                  if rng.random() < density else 0 for _ in range(m)]
                 for _ in range(m)])


def _apply_columns(op, vec, rows):
    out = [F(0)] * rows
    for col, entries in op.items():
        for row, v in entries.items():
            out[row] += v * vec[col]
    return out


def test_sparse_invariance_constraints_match_dense_formulas():
    rng = random.Random(51)
    for m in (1, 3, 4):
        pairs = sym_pairs(m)
        for density in (0.3, 1.0):
            R = _random_rational_matrix(rng, m, density)
            C = _random_rational_matrix(rng, m, density)
            ad_op = _ad_constraint(_columns(R), pairs)
            gen_op = _generator_constraint(_columns(C), pairs)
            for _ in range(3):
                A = _random_rational_matrix(rng, m, 0.7)
                Fm = A + A.T
                f = _sym_coords(Fm, pairs)
                assert _apply_columns(ad_op, f, len(pairs)) == \
                    _sym_coords(R.T.dot(Fm) + Fm.dot(R), pairs)
                assert _apply_columns(gen_op, f, len(pairs)) == \
                    _sym_coords(C.T.dot(Fm).dot(C) - Fm, pairs)


def test_minimal_ideal_count_rejects_non_subalgebra():
    g = catalog.build("su", 2)
    pair = HomogeneousPair(g, eye(3))
    try:
        minimal_ideal_count(pair, Subspace.span(3, [[1, 0, 0], [0, 1, 0]]))
    except ValueError as e:
        assert "not a subalgebra" in str(e)
    else:
        raise AssertionError("non-subalgebra accepted")


def test_minimal_ideal_count_rejects_non_semisimple():
    g = catalog.pair_from_name("torus:1+su:2").algebra
    pair = HomogeneousPair(g, eye(4))
    try:
        minimal_ideal_count(pair, Subspace.span(4, [[1, 0, 0, 0]]))
    except ValueError as e:
        assert "semisimple" in str(e)
    else:
        raise AssertionError("abelian line accepted as semisimple")


def test_form_space_dim_property():
    space = InvariantFormSpace(Subspace.span(2, [[1, 0]]), [{(0, 0): F(1)}])
    assert space.dim == 1
    assert InvariantFormSpace(Subspace.span(2, [[1, 0]]), []).dim == 0


def _every_basis_vector(pair):
    """A copy of pair that imposes h-invariance through every basis
    vector of h instead of its Lie generators."""
    full = HomogeneousPair(pair.algebra, pair.h_basis, pair.generators)
    full.h_lie_generators = list(full.h.columns)
    return full


def _sym_forms_by_equations(pair, carrier):
    """S²(carrier*)^H from the equations RᵀF + FR = 0 for ad x|carrier,
    x over every basis vector of h, and CᵀFC = F per generator, one row
    per entry (s, t), s ≤ t, on the coordinates F[p] of sym_pairs."""
    pairs = sym_pairs(carrier.dim)
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


def _form_subspace(space):
    index = {p: t for t, p in enumerate(sym_pairs(space.carrier.dim))}
    return Subspace.span(len(index), [{index[p]: v for p, v in f.items()}
                                      for f in space.form_basis])


def _commutant_by_every_vector(pair, s):
    ops = [ad_coordinates(pair.algebra, s, x) for x in s.columns]
    ops += [action_coordinates(gcols, s) for gcols in pair.generator_columns]
    return intersect_kernels([commutant_operator(R, s.dim, 0) for R in ops],
                             s.dim * s.dim).dim


def test_invariance_under_lie_generators_is_invariance_under_h(monkeypatch):
    # every invariant object built from h's Lie generators equals the one
    # built from every basis vector of h, on the ladder and the suite
    found = []
    real = koszul.intersect_kernels
    monkeypatch.setattr(koszul, "intersect_kernels",
                        lambda *a: found.append(real(*a)) or found[-1])
    names = ["sphere:4", "sphere:5", "sphere:6", "sphere:7", "stiefel:5:2",
             "flag_su3", "example_4_7"]
    for label, pair in ([(name, catalog.pair_from_name(name))
                         for name in names] + pairgen.suite()):
        alg, h = pair.algebra, pair.h
        dec = decompose(pair)
        for carrier in (h, dec.hcapgg):
            assert (_form_subspace(invariant_sym_forms(pair, carrier))
                    == _sym_forms_by_equations(pair, carrier)), label
        # (h*)^H: Rᵀc = 0 per basis vector, Cᵀc = c per generator
        del found[:]
        koszul.build_complex(pair, validate=False)
        rows = [col for x in h.columns for col in ad_coordinates(alg, h, x)]
        rows += [{**col, j: col.get(j, 0) - 1}
                 for gcols in pair.generator_columns
                 for j, col in enumerate(action_coordinates(gcols, h))]
        assert found[0] == kernel_basis(rows, h.dim), label
        if dec.hh.dim:
            assert (minimal_ideal_count(pair, dec.hh)
                    == _commutant_by_every_vector(pair, dec.hh)), label
        for _, start, stop in alg.factors:
            units = [{i: 1} for i in range(start, stop)]
            assert (liealg._commutant_dim(alg, start, stop,
                                          liealg.lie_generators(alg, units))
                    == liealg._commutant_dim(alg, start, stop, units)), label
        got = relative_complex(pair, validate=False).bases
        want = relative_complex(_every_basis_vector(pair),
                                validate=False).bases
        assert got == want, label


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
            ads = liealg._factor_ads(alg, start, stop)
            if _certified_anywhere(ads):
                units = [{i: 1} for i in range(start, stop)]
                assert liealg._commutant_dim(alg, start, stop, units) == 1
            if label.startswith("sphere"):
                assert liealg.schur_certified(ads), (label, name)
        hh = decompose(pair).hh
        ads = [ad_coordinates(alg, hh, x) for x in hh.columns]
        if _certified_anywhere(ads):
            assert (_commutant_by_every_vector(pair, hh) == 1
                    == minimal_ideal_count(pair, hh)), label
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
    s = Subspace(6, mixed)
    for ads in (liealg._factor_ads(so4, 0, 6), g.ad_sparse(),
                [ad_coordinates(g, s, x) for x in s.columns]):
        assert _certified_anywhere(ads) == []
    assert liealg.schur_certified(liealg._factor_ads(g, 0, 3))


def test_killing_guard_is_the_dense_trace_form():
    # minimal_ideal_count's guard is trace(ad sᵢ ad sⱼ) from one transposed
    # pass (linalg.trace_gram); on h = so(7) in sphere:7 it is the trace
    # of the products of the dense ad matrices
    pair = catalog.pair_from_name("sphere:7")
    m = pair.h.dim
    ads = [pair.h_ad(t) for t in range(m)]
    dense = [[[R[j].get(i, 0) for j in range(m)] for i in range(m)]
             for R in ads]
    want = [[sum(A[i][k] * B[k][i] for i in range(m) for k in range(m))
             for B in dense] for A in dense]
    assert trace_gram(ads) == want
    assert rank(want, m) == m
    assert minimal_ideal_count(pair, pair.h) == 1
    # a degenerate s, a line of the torus of su(3), still raises: as the
    # pair's own h and as a subspace handed in
    flag = catalog.build("flag_su3")
    line = Subspace.from_columns(flag.algebra.n, flag.h.columns[:1])
    for p, s in ((HomogeneousPair(flag.algebra, []), line),
                 (HomogeneousPair.from_vectors(flag.algebra, [
                     [line.columns[0].get(i, 0)
                      for i in range(flag.algebra.n)]]), None)):
        try:
            minimal_ideal_count(p, s or p.h)
        except ValueError as e:
            assert "semisimple" in str(e)
        else:
            raise AssertionError("torus line accepted as semisimple")
