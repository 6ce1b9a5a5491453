"""Exact rational linear algebra: ranks, kernels, subspaces.

Random-matrix properties are cross-checked against sympy, which has an
independent exact linear algebra implementation.
"""

import random
from fractions import Fraction

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh.linalg import (F0, F1, Subspace, combination, commutant_operator,
                           complex_ranks, coordinates, dot, echelon_insert, feye, fmat,
                           fvec, fzeros, full_subspace, intersect, intersect_kernels,
                           is_spd, is_zero, kernel_basis,
                           orth_complement, rank, rat_str, solve_many,
                           sparse_columns, subspace_sum, zero_subspace)

F = Fraction


def _random_matrix(rng, rows, cols, density=0.7):
    m = fzeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                m[i, j] = F(rng.randrange(-6, 7), rng.randrange(1, 5))
    return m


def _sympy_of(m):
    m = np.asarray(m)
    return sympy.Matrix(m.shape[0], m.shape[1],
                        [sympy.Rational(x.numerator, x.denominator)
                         for x in m.flat])


def test_rank_identity():
    assert rank(feye(2)) == 2
    # full rank with a denominator to clear, and with a pivot a small
    # prime would divide
    assert rank(fmat([[F(1, 3), 1], [0, 1]])) == 2
    assert rank(fmat([[5, 0], [0, 1]])) == 2


def test_rank_zero_matrix():
    assert rank(fzeros(3, 3)) == 0


def test_rank_dependent_columns():
    assert rank(fmat([[1, 2], [2, 4], [3, 6]])) == 1


def test_kernel_of_identity_is_zero():
    assert kernel_basis(feye(3)).dim == 0


def test_kernel_of_zero_map_is_full():
    k = kernel_basis(fzeros(2, 5))
    assert k.dim == 5 and k.ambient_dim == 5


def test_kernel_single_equation():
    k = kernel_basis(fmat([[1, 1, 0]]))
    assert k.dim == 2
    assert k.contains(fvec([1, -1, 0]))
    assert k.contains(fvec([0, 0, 1]))
    assert not k.contains(fvec([1, 0, 0]))


def _sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def test_rank_nullity_and_sympy_cross_check():
    assert rank([], 4) == 0
    assert rank([{}, {2: F0}], 3) == 0
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = _random_matrix(rng, rows, cols)
        want = _sympy_of(m).rank()
        r = rank(m)
        assert r == want
        # the same matrix as {col: value} rows takes the sparse entry point
        assert rank(_sparse_rows(m), cols) == want
        ker = kernel_basis(m)
        assert r + ker.dim == cols
        assert is_zero(m.dot(ker.basis))


def test_kernel_matches_sympy_nullspace():
    rng = random.Random(5)
    for _ in range(10):
        m = _random_matrix(rng, 4, 6, density=0.5)
        ours = kernel_basis(m)
        theirs = _sympy_of(m).nullspace()
        assert ours.dim == len(theirs)
        for v in theirs:
            vec = fvec([F(x.p, x.q) for x in v])
            assert ours.contains(vec)


def test_solve_in_span():
    basis = fmat([[1, 0], [1, 1], [0, 2]])
    x = solve_many(basis, fmat([[1], [3], [4]]))
    assert list(x[:, 0]) == [F(1), F(2)]
    assert solve_many(basis, fmat([[1], [0], [0]])) is None


def test_solve_many_matches_columnwise_solve():
    basis = fmat([[1, 0], [1, 1], [0, 2]])
    # no right-hand side, an empty basis, and a dependent basis whose free
    # variable is set to 0
    assert solve_many(basis, fzeros(3, 0)).shape == (2, 0)
    assert solve_many(fzeros(2, 0), fzeros(2, 1)).shape == (0, 1)
    assert solve_many(fzeros(2, 0), fmat([[0], [1]])) is None
    dependent = fmat([[1, 2, 0], [0, 0, 1]])
    assert list(solve_many(dependent, fmat([[3], [5]]))[:, 0]) == [3, 0, 5]
    rng = random.Random(3)
    basis = _random_matrix(rng, 5, 3)
    coeff = _random_matrix(rng, 3, 4)
    rhs = basis.dot(coeff)
    got = solve_many(basis, rhs)
    assert got is not None
    assert is_zero(basis.dot(got) - rhs)
    for j in range(rhs.shape[1]):
        one = solve_many(basis, rhs[:, j:j + 1])
        assert list(one[:, 0]) == list(got[:, j])
    escaped = rhs.copy()
    escaped[:, 1] = fvec([1, 0, 0, 0, 0])
    if solve_many(basis, escaped[:, 1:2]) is None:
        assert solve_many(basis, escaped) is None


def test_coordinates_in_subspace_columns():
    # a spanned subspace (no free rows) goes through one elimination
    carrier = Subspace.span(3, [[1, 0, 0], [0, 2, 0]])
    assert carrier.free is None
    (got,) = coordinates(carrier, [{0: F(3), 1: F(4)}])
    assert combination(carrier.columns, got) == {0: 3, 1: 4}
    try:
        coordinates(carrier, [{2: F(1)}])
    except ValueError:
        pass
    else:
        raise AssertionError("escaping vector accepted")
    # a kernel basis reads its free rows and maps them back
    rng = random.Random(5)
    for _ in range(5):
        ker = kernel_basis(_random_matrix(rng, 2, 5))
        assert ker.free is not None
        coeffs = [{j: F(rng.randrange(-3, 4)) for j in range(ker.dim)}
                  for _ in range(3)]
        vectors = [combination(ker.columns, c) for c in coeffs]
        assert coordinates(ker, vectors) == [
            {j: x for j, x in c.items() if x} for c in coeffs]
        spanned = Subspace.span(5, ker.columns)
        for v, c in zip(vectors, coordinates(spanned, vectors)):
            assert combination(spanned.columns, c) == v
        outside = next({t: F1} for t in range(5) if not ker.contains({t: F1}))
        for space in (ker, spanned):
            try:
                coordinates(space, vectors + [outside])
            except ValueError:
                pass
            else:
                raise AssertionError("escaping vector accepted")


def test_inverse_against_sympy():
    rng = random.Random(23)
    for _ in range(8):
        m = _random_matrix(rng, 4, 4)
        if rank(m) < 4:
            continue
        inv = solve_many(m, feye(4))
        assert is_zero(m.dot(inv) - feye(4))
        theirs = _sympy_of(m).inv()
        assert _sympy_of(inv) == theirs


def test_inverse_of_singular_is_none():
    assert solve_many(fmat([[1, 2], [2, 4]]), feye(2)) is None


# denominators of the pairgen rotations (3/5, 5/13, 8/17) among small ones
_RATIONALS = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 5, 13, 17]))


def _matrices(rows, cols):
    return st.lists(_RATIONALS, min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda xs: np.array(xs, dtype=object).reshape(rows, cols))


@st.composite
def _systems(draw):
    """(basis, coeff, v, other): basis has dependent columns appended."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 3))
    basis = draw(_matrices(n, k))
    extra = draw(st.integers(0, 2))
    basis = np.hstack([basis, dot(basis, draw(_matrices(k, extra)))])
    coeff = draw(_matrices(basis.shape[1], draw(st.integers(0, 3))))
    v = draw(_matrices(n, 1))
    # other spans a random combination of the basis columns, sometimes
    # with one more random column
    other = dot(basis, draw(_matrices(basis.shape[1], draw(st.integers(0, 3)))))
    if draw(st.booleans()):
        other = np.hstack([other, draw(_matrices(n, 1))])
    return basis, coeff, v, other


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_systems())
def test_solve_span_and_equality_against_sympy(system):
    basis, coeff, v, other = system
    n = basis.shape[0]
    rank_basis = _sympy_of(basis).rank()
    # coordinates reproduce every right-hand side in the span
    rhs = dot(basis, coeff)
    x = solve_many(basis, rhs)
    assert x is not None and (dot(basis, x) == rhs).all()
    # a column escapes exactly when it raises sympy's rank
    escapes = _sympy_of(np.hstack([basis, v])).rank() > rank_basis
    assert (solve_many(basis, v) is None) == escapes
    assert (solve_many(basis, np.hstack([rhs, v])) is None) == escapes
    s = Subspace.span(n, [basis[:, j] for j in range(basis.shape[1])])
    assert s.dim == rank_basis
    assert s.contains(v[:, 0]) == (not escapes)
    t = Subspace.span(n, [other[:, j] for j in range(other.shape[1])])
    rank_other = _sympy_of(other).rank()
    rank_both = _sympy_of(np.hstack([basis, other])).rank()
    same = rank_other == rank_basis == rank_both
    assert (s == t) == same
    assert (t == s) == same
    # intersection and sum against sympy ranks of [A | B]
    both = intersect(s, t)
    assert both.dim == rank_basis + rank_other - rank_both
    assert s.contains_subspace(both) and t.contains_subspace(both)
    total = subspace_sum(s, t)
    assert total.dim == rank_both
    assert total.contains_subspace(s) and total.contains_subspace(t)
    # every constructor path holds one column per dimension, and the dense
    # basis is exactly those columns
    sparse = [{i: x for i, x in enumerate(basis[:, j]) if x}
              for j in range(basis.shape[1])]
    for sub in (s, t, both, total, Subspace.span(n, sparse),
                Subspace(n, s.basis), kernel_basis(basis),
                intersect_kernels([sparse_columns(basis.T)], n), zero_subspace(n),
                full_subspace(n)):
        _assert_columns_match_basis(sub)
    assert Subspace.span(n, sparse) == s
    assert Subspace(n, s.basis) == s


def _assert_columns_match_basis(sub):
    assert len(sub.columns) == sub.dim
    assert sub.basis.shape == (sub.ambient_dim, sub.dim)
    dense = fzeros(sub.ambient_dim, sub.dim)
    for j, col in enumerate(sub.columns):
        for i, x in col.items():
            dense[i, j] = x
    assert (sub.basis == dense).all()


def _random_frame(draw, n):
    """A random invertible n x n matrix: a permutation times L * diag * U.

    L and U are unit triangular with half their entries zero, so the frame
    is often sparse and clearing meets structured leading rows.
    """
    entry = st.one_of(st.just(F0), _RATIONALS)
    lower, upper, frame = feye(n), feye(n), fzeros(n, n)
    for i in range(n):
        for j in range(i):
            lower[i, j] = draw(entry)
            upper[j, i] = draw(entry)
        upper[i, i] = draw(_RATIONALS.filter(bool))
    for i, j in enumerate(draw(st.permutations(range(n)))):
        frame[i, j] = F1
    return dot(frame, dot(lower, upper))


@st.composite
def _chain_complexes(draw):
    """(maps, ranks): d_k = A_{k+1} E_k A_k^-1 for random invertible A_k.

    Degree k has coordinates [Y_k | H_k | X_k] of sizes ranks[k-1], h_k and
    ranks[k]; E_k is the identity from X_k onto Y_{k+1} and zero elsewhere,
    so E_{k+1} E_k = 0, and so is d_{k+1} d_k.
    """
    length = draw(st.integers(1, 4))
    ranks = draw(st.lists(st.integers(0, 3), min_size=length,
                          max_size=length))
    dims = [(ranks[k - 1] if k else 0) + draw(st.integers(0, 2))
            + (ranks[k] if k < length else 0) for k in range(length + 1)]
    frames = [_random_frame(draw, n) for n in dims]
    maps = []
    for k in range(length):
        e = fzeros(dims[k + 1], dims[k])
        for i in range(ranks[k]):
            e[i, dims[k] - ranks[k] + i] = F1
        inv = _sympy_of(frames[k]).inv()
        inv = np.array([F(int(x.p), int(x.q)) for x in inv],
                       dtype=object).reshape(dims[k], dims[k])
        maps.append(dot(dot(frames[k + 1], e), inv))
    return maps, ranks


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_chain_complexes())
def test_complex_ranks_against_sympy(cx):
    maps, ranks = cx
    for k in range(len(maps) - 1):
        assert is_zero(dot(maps[k + 1], maps[k]))
    got = complex_ranks([(sparse_columns(d), d.shape[0], d.shape[1])
                         for d in maps])
    assert got == [_sympy_of(d).rank() for d in maps] == ranks


def test_is_spd():
    assert is_spd(fmat([[2, 1], [1, 2]]))
    assert not is_spd(fmat([[1, 2], [2, 1]]))   # det < 0
    assert not is_spd(fmat([[0, 0], [0, 1]]))
    assert not is_spd(fmat([[1, 1], [0, 1]]))   # not symmetric


def test_subspace_span_and_equality():
    s1 = Subspace.span(3, [[1, 0, 0], [1, 1, 0]])
    s2 = Subspace.span(3, [[0, 1, 0], [2, 1, 0]])
    assert s1 == s2
    assert s1 != Subspace.span(3, [[1, 0, 0]])
    assert s1.contains_subspace(Subspace.span(3, [[3, -2, 0]]))


def test_subspace_rejects_dependent_basis():
    try:
        Subspace(2, fmat([[1, 2], [2, 4]]))
    except ValueError:
        pass
    else:
        raise AssertionError("dependent basis accepted")


def test_intersect_axes():
    x_axis = Subspace.span(2, [[1, 0]])
    y_axis = Subspace.span(2, [[0, 1]])
    assert intersect(x_axis, y_axis).dim == 0


def test_subspace_sum():
    x_axis = Subspace.span(2, [[1, 0]])
    y_axis = Subspace.span(2, [[0, 1]])
    assert subspace_sum(x_axis, y_axis) == full_subspace(2)
    assert subspace_sum(x_axis, zero_subspace(2)) == x_axis


def test_orth_complement_identity_gram():
    x_axis = Subspace.span(2, [[1, 0]])
    assert orth_complement(x_axis, feye(2)) == Subspace.span(2, [[0, 1]])


def test_orth_complement_weighted_gram():
    diag = fmat([[1, 0], [0, 2]])
    s = Subspace.span(2, [[1, 1]])
    assert orth_complement(s, diag) == Subspace.span(2, [[2, -1]])


def test_orth_complement_requires_spd():
    try:
        orth_complement(Subspace.span(2, [[1, 0]]), fmat([[1, 0], [0, -1]]))
    except ValueError:
        pass
    else:
        raise AssertionError("indefinite gram accepted")


def test_intersect_kernels_matches_stacked_kernel():
    rng = random.Random(7)
    for _ in range(15):
        dim = rng.randrange(1, 6)
        ops = [_random_matrix(rng, rng.randrange(1, 5), dim, density=0.5)
               for _ in range(rng.randrange(1, 4))]
        got = intersect_kernels([sparse_columns(op) for op in ops], dim)
        want = kernel_basis(np.vstack(ops))
        assert got == want


def _columns(m):
    return {j: [(i, m[i, j]) for i in range(m.shape[0]) if m[i, j]]
            for j in range(m.shape[1])}


def test_sparse_columns_and_int_rows():
    rng = random.Random(13)
    for _ in range(15):
        m = _random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 6),
                           density=0.4)
        assert sparse_columns(m) == {j: col for j, col in _columns(m).items()
                                     if col}
        # rows of ints, or of ints and Fractions mixed, rank like Fractions;
        # the entries' denominators are 1..4, so 12 clears them
        scaled = [{j: int(x * 12) for j, x in enumerate(row) if x}
                  for row in m]
        assert rank(scaled, m.shape[1]) == rank(m)
        if scaled and scaled[0]:
            scaled[0] = {j: F(x, 3) for j, x in scaled[0].items()}
        assert rank(scaled, m.shape[1]) == rank(m)


def test_intersect_kernels_sparse_column_operators():
    rng = random.Random(11)
    for _ in range(15):
        dim = rng.randrange(1, 7)
        ops = [_random_matrix(rng, rng.randrange(1, 5), dim, density=0.4)
               for _ in range(rng.randrange(1, 4))]
        got = intersect_kernels((_columns(op) for op in ops), dim)
        assert got == kernel_basis(np.vstack(ops))
        # the basis is the identity on its free rows
        for j, col in enumerate(got.columns):
            assert [col.get(r, 0) for r in got.free] == [
                1 if i == j else 0 for i in range(got.dim)]
            assert all(x for x in col.values())


def test_kernel_basis_of_sparse_rows_matches_dense():
    rng = random.Random(5)
    for _ in range(15):
        m = _random_matrix(rng, rng.randrange(0, 5), rng.randrange(1, 6),
                           density=0.4)
        rows = [{j: x for j, x in enumerate(row) if x} for row in m]
        assert kernel_basis(rows, m.shape[1]) == kernel_basis(m)


def test_intersect_kernels_no_operators_is_full():
    assert intersect_kernels([], 4) == full_subspace(4)


def test_rat_str_round_trip():
    assert rat_str(F(3)) == "3"
    assert rat_str(F(-7, 2)) == "-7/2"
    assert F(rat_str(F(22, 4))) == F(11, 2)


def _apply_columns(op, vec, rows):
    """Apply a sparse {col: [(row, value)]} operator to a dense vector."""
    out = fzeros(rows)
    for col, entries in op.items():
        for row, v in entries:
            out[row] += v * vec[col]
    return out


def test_commutant_operator_is_p_r_minus_r_p():
    rng = random.Random(31)
    m = 4
    R = _random_matrix(rng, m, m, density=0.5)
    op = commutant_operator({(r, c): v for c, col in sparse_columns(R).items()
                             for r, v in col}, m)
    # the identity commutes with everything
    assert is_zero(_apply_columns(op, feye(m).reshape(m * m), m * m))
    for _ in range(3):
        P = _random_matrix(rng, m, m)
        got = _apply_columns(op, P.reshape(m * m), m * m)
        assert list(got) == list((P.dot(R) - R.dot(P)).reshape(m * m))


def test_dot_matches_dense_product():
    rng = random.Random(32)
    for rows, inner, cols in ((3, 4, 2), (5, 5, 5), (1, 3, 1), (4, 0, 3)):
        a = _random_matrix(rng, rows, inner, density=0.4)
        b = _random_matrix(rng, inner, cols, density=0.4)
        assert (dot(a, b) == a.dot(b)).all()
        assert list(dot(a, b[:, 0])) == list(a.dot(b[:, 0]))


def test_echelon_insert_tracks_rank():
    rng = random.Random(33)
    for _ in range(5):
        m = _random_matrix(rng, 6, 5, density=0.5)
        echelon = {}
        grown = 0
        for i in range(m.shape[0]):
            row = {j: x for j, x in enumerate(m[i]) if x}
            before = len(echelon)
            new = echelon_insert(echelon, row)
            assert (new is None) == (len(echelon) == before)
            grown += new is not None
            assert grown == rank(m[:i + 1])
        # each row starts at its own pivot, and nothing in the span grows it
        assert all(min(r) == c for c, r in echelon.items())
        double = {j: 2 * x for j, x in enumerate(m[0]) if x}
        assert echelon_insert(echelon, double) is None
