"""Exact rational linear algebra: ranks, kernels, subspaces.

Random-matrix properties are cross-checked against sympy, which has an
independent exact linear algebra implementation.  Test matrices are numpy
object arrays of Fractions; the library reads their rows.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import linalg
from liecoh.liealg import LieAlgebra
from liecoh.linalg import (Subspace, combination, complex_ranks,
                           coordinates, echelon_insert, full_subspace,
                           intersect_kernels, is_spd, kernel_basis, kernel_in,
                           minus_identity, rank, rat_str, trace_gram)
from liecoh.pairs import HomogeneousPair

from pairgen import (commutant_operator, graded_monomials_by_sorting,
                     intersect)

F = Fraction


def _zeros(rows, cols):
    return np.full((rows, cols), F(0), dtype=object)


def _eye(n):
    m = _zeros(n, n)
    for i in range(n):
        m[i, i] = F(1)
    return m


def _columns(m):
    """The columns of a numpy matrix as {col: {row: value}}, zero columns
    left out."""
    return {j: col for j in range(m.shape[1])
            if (col := {i: m[i, j] for i in range(m.shape[0]) if m[i, j]})}


def _random_matrix(rng, rows, cols, density=0.7):
    m = _zeros(rows, cols)
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
    assert rank([[1, 0], [0, 1]], 2) == 2
    # full rank with a denominator to clear, and with a pivot a small
    # prime would divide
    assert rank([[F(1, 3), 1], [0, 1]], 2) == 2
    assert rank([[5, 0], [0, 1]], 2) == 2


def test_rank_zero_matrix():
    assert rank(_zeros(3, 3), 3) == 0


def test_rank_dependent_columns():
    assert rank([[1, 2], [2, 4], [3, 6]], 2) == 1


def test_kernel_of_identity_is_zero():
    assert kernel_basis(_eye(3), 3).dim == 0


def test_kernel_of_zero_map_is_full():
    k = kernel_basis(_zeros(2, 5), 5)
    assert k.dim == 5 and k.ambient_dim == 5


def test_kernel_single_equation():
    k = kernel_basis([[1, 1, 0]], 3)
    assert k.dim == 2
    assert k.contains([1, -1, 0])
    assert k.contains([0, 0, 1])
    assert not k.contains([1, 0, 0])


def _sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def test_rank_nullity_and_sympy_cross_check():
    assert rank([], 4) == 0
    assert rank([{}, {2: F(0)}], 3) == 0
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = _random_matrix(rng, rows, cols)
        want = _sympy_of(m).rank()
        r = rank(m, cols)
        assert r == want
        # the same matrix as {col: value} rows
        assert rank(_sparse_rows(m), cols) == want
        ker = kernel_basis(m, cols)
        assert r + ker.dim == cols
        for col in ker.columns:
            assert not any(m.dot([col.get(j, 0) for j in range(cols)]))


def test_kernel_matches_sympy_nullspace():
    rng = random.Random(5)
    for _ in range(10):
        m = _random_matrix(rng, 4, 6, density=0.5)
        ours = kernel_basis(m, 6)
        theirs = _sympy_of(m).nullspace()
        assert ours.dim == len(theirs)
        for v in theirs:
            assert ours.contains([F(x.p, x.q) for x in v])


def test_solve_in_span():
    span = Subspace(3, [{0: 1, 1: 1}, {1: 1, 2: 2}])
    assert coordinates(span, [{0: 1, 1: 3, 2: 4}]) == [{0: 1, 1: 2}]
    with pytest.raises(ValueError):
        coordinates(span, [{0: 1}])
    # no vectors, and the zero space, which holds only the zero vector
    assert coordinates(span, []) == []
    assert coordinates(Subspace(2, []), [{}]) == [{}]
    with pytest.raises(ValueError):
        coordinates(Subspace(2, []), [{1: 1}])


def test_solve_many_matches_columnwise_solve():
    # a batch of vectors solves like each vector alone, and fails as a
    # whole when one of them escapes
    rng = random.Random(3)
    basis = _random_matrix(rng, 5, 3)
    assert rank(basis, 3) == 3
    coeff = _random_matrix(rng, 3, 4)
    rhs = basis.dot(coeff)
    span = Subspace(5, list(_columns(basis).values()))
    vectors = [{i: x for i, x in enumerate(rhs[:, j]) if x} for j in range(4)]
    got = coordinates(span, vectors)
    assert got == [{i: x for i, x in enumerate(coeff[:, j]) if x}
                   for j in range(4)]
    assert [coordinates(span, [v])[0] for v in vectors] == got
    outside = {0: F(1)}
    assert not span.contains(outside)
    with pytest.raises(ValueError):
        coordinates(span, vectors[:1] + [outside] + vectors[1:])


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
        ker = kernel_basis(_random_matrix(rng, 2, 5), 5)
        assert ker.free is not None
        coeffs = [{j: F(rng.randrange(-3, 4)) for j in range(ker.dim)}
                  for _ in range(3)]
        vectors = [combination(ker.columns, c) for c in coeffs]
        assert coordinates(ker, vectors) == [
            {j: x for j, x in c.items() if x} for c in coeffs]
        spanned = Subspace.span(5, ker.columns)
        for v, c in zip(vectors, coordinates(spanned, vectors)):
            assert combination(spanned.columns, c) == v
        outside = next({t: F(1)} for t in range(5)
                       if not ker.contains({t: F(1)}))
        for space in (ker, spanned):
            try:
                coordinates(space, vectors + [outside])
            except ValueError:
                pass
            else:
                raise AssertionError("escaping vector accepted")


def test_coordinates_eliminate_once_per_subspace(monkeypatch):
    calls = []
    real = linalg._sparse_echelon

    def counted(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)
    monkeypatch.setattr(linalg, "_sparse_echelon", counted)
    rng = random.Random(11)
    span = Subspace.span(6, [_random_matrix(rng, 6, 1)[:, 0]
                             for _ in range(4)])
    assert span.dim == 4 and span.free is None
    vectors = [combination(span.columns, {0: F(1, 3), 2: F(-2)}),
               combination(span.columns, {1: F(5), 3: F(1)})]
    del calls[:]
    first = coordinates(span, vectors)
    assert calls, "the first call builds the solver"
    del calls[:]
    assert coordinates(span, vectors) == first
    assert coordinates(span, vectors[1:]) == first[1:]
    # an escaping vector is still caught by mapping back, with no new
    # elimination
    outside = next({t: F(1)} for t in range(6) if not span.contains({t: F(1)}))
    del calls[:]
    with pytest.raises(ValueError):
        coordinates(span, vectors + [outside])
    # a vector that agrees with the span on the solver's rows only
    off = next(t for t in range(6) if t not in span.solver)
    near = {**vectors[0], off: vectors[0].get(off, 0) + 1}
    near = {t: x for t, x in near.items() if x}
    with pytest.raises(ValueError):
        coordinates(span, [near])
    assert calls == []


def _inverse(m):
    """m^-1 as a sympy matrix, from the coordinates of the unit vectors in
    the columns of m; None if the columns are dependent."""
    n = m.shape[0]
    cols = [{i: m[i, j] for i in range(n) if m[i, j]} for j in range(n)]
    if rank(cols, n) < n:
        return None
    columns = Subspace(n, cols)
    inv = coordinates(columns, [{i: F(1)} for i in range(n)])
    return sympy.Matrix(n, n, lambda i, j: inv[j].get(i, 0))


def test_inverse_against_sympy():
    rng = random.Random(23)
    for _ in range(8):
        m = _random_matrix(rng, 4, 4)
        if rank(m, 4) < 4:
            continue
        inv = _inverse(m)
        assert _sympy_of(m) * inv == sympy.eye(4)
        assert inv == _sympy_of(m).inv()


def test_inverse_of_singular_is_none():
    assert _inverse(np.array([[F(1), F(2)], [F(2), F(4)]], dtype=object)) is None


# denominators of the pairgen rotations (3/5, 5/13, 8/17) among small ones
_RATIONALS = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 5, 13, 17]))


def _matrices(rows, cols):
    return st.lists(_RATIONALS, min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda xs: np.array(xs, dtype=object).reshape(rows, cols))


@st.composite
def _systems(draw):
    """(basis, coeff, v, other, kcoeff): basis has dependent columns
    appended."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 3))
    basis = draw(_matrices(n, k))
    extra = draw(st.integers(0, 2))
    basis = np.hstack([basis, basis.dot(draw(_matrices(k, extra)))])
    coeff = draw(_matrices(basis.shape[1], draw(st.integers(0, 3))))
    v = draw(_matrices(n, 1))
    # other spans a random combination of the basis columns, sometimes
    # with one more random column
    other = basis.dot(draw(_matrices(basis.shape[1], draw(st.integers(0, 3)))))
    if draw(st.booleans()):
        other = np.hstack([other, draw(_matrices(n, 1))])
    # coefficients for vectors of a kernel basis, whose dimension is <= n
    kcoeff = draw(_matrices(n, draw(st.integers(0, 2))))
    return basis, coeff, v, other, kcoeff


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_systems())
def test_solve_span_and_equality_against_sympy(system):
    basis, coeff, v, other, kcoeff = system
    n = basis.shape[0]
    rank_basis = _sympy_of(basis).rank()
    s = Subspace.span(n, [basis[:, j] for j in range(basis.shape[1])])
    assert s.dim == rank_basis
    # coordinates in the echelon columns reproduce every right-hand side
    # in the span
    rhs = [{i: x for i, x in enumerate(col) if x} for col in basis.dot(coeff).T]
    for c, want in zip(coordinates(s, rhs), rhs):
        assert combination(s.columns, c) == want
    # and they are sympy's unique solution, in the echelon columns and in
    # a kernel basis, whose solver is its free rows
    ker = kernel_basis(basis.T, n)
    for space, vectors in ((s, rhs), (ker, [
            combination(ker.columns, {j: x for j, x in enumerate(c[:ker.dim])
                                      if x}) for c in kcoeff.T])):
        cols = _sympy_of(np.array(
            [[col.get(i, 0) for col in space.columns] for i in range(n)],
            dtype=object).reshape(n, space.dim))
        for c, w in zip(coordinates(space, vectors), vectors):
            sol, params = cols.gauss_jordan_solve(
                _sympy_of(np.array([[w.get(i, 0)] for i in range(n)],
                                   dtype=object)))
            assert params.shape[0] == 0
            assert [c.get(j, 0) for j in range(space.dim)] == list(sol)
    # a vector escapes exactly when it raises sympy's rank
    escapes = _sympy_of(np.hstack([basis, v])).rank() > rank_basis
    assert s.contains(v[:, 0]) == (not escapes)
    w = {i: x for i, x in enumerate(v[:, 0]) if x}
    for vectors in ([w], rhs + [w]):
        try:
            coordinates(s, vectors)
        except ValueError:
            assert escapes
        else:
            assert not escapes
    t = Subspace.span(n, [other[:, j] for j in range(other.shape[1])])
    rank_other = _sympy_of(other).rank()
    rank_both = _sympy_of(np.hstack([basis, other])).rank()
    same = rank_other == rank_basis == rank_both
    assert (s == t) == same
    assert (t == s) == same
    # intersection and sum against sympy ranks of [A | B]: s ∩ t is the
    # kernel in s of the map whose rows annihilate t
    both = kernel_in(s, [linalg.transpose(kernel_basis(t.columns, n).columns)])
    assert both.dim == rank_basis + rank_other - rank_both
    assert s.contains_subspace(both) and t.contains_subspace(both)
    assert both == intersect(s, t)
    total = Subspace.span(n, s.columns + t.columns)
    assert total.dim == rank_both
    assert total.contains_subspace(s) and total.contains_subspace(t)
    # every constructor path holds one column per dimension, without zeros
    sparse = [{i: x for i, x in enumerate(basis[:, j]) if x}
              for j in range(basis.shape[1])]
    for sub in (s, t, both, total, Subspace.span(n, sparse),
                kernel_basis(basis, basis.shape[1]),
                intersect_kernels([_columns(basis.T)], n),
                kernel_in(s, [{i: {i: 1} for i in range(n)}]),
                full_subspace(n)):
        assert len(sub.columns) == sub.dim
        assert all(x and 0 <= i < sub.ambient_dim
                   for col in sub.columns for i, x in col.items())
    assert Subspace.span(n, sparse) == s


def _random_frame(draw, n):
    """A random invertible n x n matrix: a permutation times L * diag * U.

    L and U are unit triangular with half their entries zero, so the frame
    is often sparse and clearing meets structured leading rows.
    """
    entry = st.one_of(st.just(F(0)), _RATIONALS)
    lower, upper, frame = _eye(n), _eye(n), _zeros(n, n)
    for i in range(n):
        for j in range(i):
            lower[i, j] = draw(entry)
            upper[j, i] = draw(entry)
        upper[i, i] = draw(_RATIONALS.filter(bool))
    for i, j in enumerate(draw(st.permutations(range(n)))):
        frame[i, j] = F(1)
    return frame.dot(lower.dot(upper))


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
        e = _zeros(dims[k + 1], dims[k])
        for i in range(ranks[k]):
            e[i, dims[k] - ranks[k] + i] = F(1)
        inv = _sympy_of(frames[k]).inv()
        inv = np.array([F(int(x.p), int(x.q)) for x in inv],
                       dtype=object).reshape(dims[k], dims[k])
        maps.append(frames[k + 1].dot(e).dot(inv))
    return maps, ranks


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_chain_complexes())
def test_complex_ranks_against_sympy(cx):
    maps, ranks = cx
    for k in range(len(maps) - 1):
        assert not any(maps[k + 1].dot(maps[k]).flat)
    got = complex_ranks([(_columns(d), d.shape[0], d.shape[1]) for d in maps])
    assert got == [_sympy_of(d).rank() for d in maps] == ranks


def test_is_spd():
    assert is_spd([[2, 1], [1, 2]])
    assert not is_spd([[1, 2], [2, 1]])   # det < 0
    assert not is_spd([[0, 0], [0, 1]])
    assert not is_spd([[1, 1], [0, 1]])   # not symmetric


def _is_spd_by_fraction_pivots(gram):
    """The symmetric Gaussian elimination over Fractions is_spd replaced:
    all pivots positive."""
    a = [[F(x) for x in row] for row in gram]
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i + 1, n)):
        return False
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return True


def test_is_spd_matches_fraction_pivots():
    rng = random.Random(23)

    def rational():
        return F(rng.randint(-6, 6), rng.randint(1, 5))

    cases = [[], [[F(1, 3)]], [[0]], [[F(-2, 7)]], [[1, 0]], [[1], [0]],
             [[1, 2, 3], [2, 5, 4]], [[1, 0], [0, 1], [0, 0]]]
    for n in range(1, 7):
        for _ in range(12):
            m = [[rational() for _ in range(n)] for _ in range(rng.randint(
                1, n))]
            # AᵀA is positive semidefinite, singular when A has fewer rows
            gram = [[sum(r[i] * r[j] for r in m) for j in range(n)]
                    for i in range(n)]
            cases.append(gram)
            shift = rng.choice([0, 1, F(1, 2), -1])
            cases.append([[x + shift * (i == j) for j, x in enumerate(row)]
                          for i, row in enumerate(gram)])
            sym = [[rational() for _ in range(n)] for _ in range(n)]
            cases.append([[sym[min(i, j)][max(i, j)] for j in range(n)]
                          for i in range(n)])
            tilt = [row[:] for row in gram]
            tilt[0][n - 1] += 1
            cases.append(tilt)
    seen = set()
    for gram in cases:
        want = _is_spd_by_fraction_pivots(gram)
        assert is_spd(gram) == want, gram
        seen.add(want)
    assert seen == {True, False}
    assert is_spd([["1/2", 0], [0, "3"]]) and not is_spd([["1/2", 1],
                                                           [1, "2"]])


def test_subspace_span_and_equality():
    s1 = Subspace.span(3, [[1, 0, 0], [1, 1, 0]])
    s2 = Subspace.span(3, [[0, 1, 0], [2, 1, 0]])
    assert s1 == s2
    assert s1 != Subspace.span(3, [[1, 0, 0]])
    assert s1.contains_subspace(Subspace.span(3, [[3, -2, 0]]))


def test_subspace_rejects_dependent_basis():
    # a Subspace holds the columns it is given; the pair constructor, which
    # takes h's basis from outside the package, rejects dependent ones
    with pytest.raises(ValueError, match="^basis columns are dependent$"):
        HomogeneousPair(LieAlgebra.abelian(2), [{0: 1, 1: 2}, {0: 2, 1: 4}])


def test_intersect_axes():
    x_axis = Subspace.span(2, [[1, 0]])
    y_axis = Subspace.span(2, [[0, 1]])
    assert intersect(x_axis, y_axis).dim == 0
    # the x axis is the kernel of the projection onto the second coordinate
    assert kernel_in(y_axis, [{1: {1: 1}}]).dim == 0
    assert kernel_in(x_axis, [{1: {1: 1}}]) is x_axis


def test_kernel_in_is_the_intersection_with_the_kernel():
    # random sparse rational subspaces cut by random coordinate
    # projections, Killing functionals and gamma - 1: the vectors of the
    # space in the common kernel, with independent columns, and the space
    # itself exactly when every map vanishes on it
    rng = random.Random(17)

    def entry():
        return F(rng.randrange(-3, 4), rng.randrange(1, 3))

    cut = 0
    for trial in range(300):
        n = rng.randrange(1, 8)
        vectors = [{i: entry() for i in rng.sample(range(n),
                                                   rng.randrange(1, n + 1))}
                   for _ in range(rng.randrange(0, n + 1))]
        space = Subspace.span(n, [{i: x for i, x in v.items() if x}
                                  for v in vectors])
        kind = trial % 3
        if kind == 0:
            # the projection onto the coordinates off rows
            rows = set(rng.sample(range(n), rng.randrange(0, n + 1)))
            maps = [{i: {i: 1} for i in range(n) if i not in rows}]
            want = Subspace.span(n, [{t: 1} for t in rows])
        elif kind == 1:
            # x -> K(x, y_t) for a diagonal form K with a zero block (the
            # center) and a few vectors y_t
            diag = [0] * rng.randrange(0, n) + [-8] * n
            ys = [{i: entry() for i in rng.sample(range(n),
                                                  rng.randrange(1, n + 1))}
                  for _ in range(rng.randrange(0, 3))]
            functionals = [{i: diag[i] * x for i, x in y.items()
                            if diag[i] * x} for y in ys]
            maps = [linalg.transpose(functionals)]
            want = kernel_basis(functionals, n)
        else:
            # gamma - 1 for sparse signed permutations: the fixed vectors
            maps, fixed = [], full_subspace(n)
            for _ in range(rng.randrange(0, 3)):
                perm = rng.sample(range(n), n)
                gamma = [{perm[j]: rng.choice((-1, 1))} for j in range(n)]
                maps.append(minus_identity(gamma, n))
                fixed = intersect(fixed, kernel_basis(
                    linalg.transpose(maps[-1]).values(), n))
            want = fixed
        got = kernel_in(space, maps)
        assert got == intersect(space, want)
        assert rank(got.columns, n) == got.dim
        assert all(not combination(m, c) for m in maps for c in got.columns)
        vanish = all(not combination(m, c) for m in maps
                     for c in space.columns)
        assert (got is space) == vanish
        cut += not vanish
    assert 0 < cut < 300


def test_kernel_in_of_zero_maps_is_the_space_itself():
    plane = Subspace.span(3, [[1, 0, 0], [0, 1, 1]])
    assert kernel_in(plane, []) is plane
    assert kernel_in(plane, [{}, {}]) is plane
    # a map that vanishes on the plane but not on Q^3
    assert kernel_in(plane, [{1: {0: 1}, 2: {0: -1}}]) is plane
    assert kernel_in(full_subspace(3), [{1: {0: 1}, 2: {0: -1}}]) == plane
    empty = Subspace.span(3, [])
    assert kernel_in(empty, [{0: {0: 1}}]) is empty


def test_intersect_kernels_matches_stacked_kernel():
    rng = random.Random(7)
    for _ in range(15):
        dim = rng.randrange(1, 6)
        ops = [_random_matrix(rng, rng.randrange(1, 5), dim, density=0.5)
               for _ in range(rng.randrange(1, 4))]
        got = intersect_kernels([_columns(op) for op in ops], dim)
        want = kernel_basis(np.vstack(ops), dim)
        assert got == want


def test_int_rows_rank_like_fractions():
    rng = random.Random(13)
    for _ in range(15):
        m = _random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 6),
                           density=0.4)
        # rows of ints, or of ints and Fractions mixed, rank like Fractions;
        # the entries' denominators are 1..4, so 12 clears them
        scaled = [{j: int(x * 12) for j, x in enumerate(row) if x}
                  for row in m]
        assert rank(scaled, m.shape[1]) == rank(m, m.shape[1])
        if scaled and scaled[0]:
            scaled[0] = {j: F(x, 3) for j, x in scaled[0].items()}
        assert rank(scaled, m.shape[1]) == rank(m, m.shape[1])


def test_intersect_kernels_sparse_column_operators():
    rng = random.Random(11)
    for _ in range(15):
        dim = rng.randrange(1, 7)
        ops = [_random_matrix(rng, rng.randrange(1, 5), dim, density=0.4)
               for _ in range(rng.randrange(1, 4))]
        got = intersect_kernels((_columns(op) for op in ops), dim)
        assert got == kernel_basis(np.vstack(ops), dim)
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
        assert kernel_basis(rows, m.shape[1]) == kernel_basis(m, m.shape[1])


def test_intersect_kernels_no_operators_is_full():
    assert intersect_kernels([], 4) == full_subspace(4)


def test_rat_str_round_trip():
    assert rat_str(F(3)) == "3"
    assert rat_str(F(-7, 2)) == "-7/2"
    assert F(rat_str(F(22, 4))) == F(11, 2)


def _apply_columns(op, vec, rows):
    """Apply a sparse {col: {row: value}} operator to a dense vector."""
    out = [F(0)] * rows
    for col, entries in op.items():
        for row, v in entries.items():
            out[row] += v * vec[col]
    return out


def test_commutant_operator_is_p_r_minus_r_p():
    rng = random.Random(31)
    m = 4
    R = _random_matrix(rng, m, m, density=0.5)
    op = commutant_operator(_columns(R), m, 0)
    # the identity commutes with everything
    assert not any(_apply_columns(op, _eye(m).reshape(m * m), m * m))
    for _ in range(3):
        P = _random_matrix(rng, m, m)
        got = _apply_columns(op, P.reshape(m * m), m * m)
        assert list(got) == list((P.dot(R) - R.dot(P)).reshape(m * m))


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
            assert grown == rank(m[:i + 1], 5)
        # each row starts at its own pivot, and nothing in the span grows it
        assert all(min(r) == c for c, r in echelon.items())
        double = {j: 2 * x for j, x in enumerate(m[0]) if x}
        assert echelon_insert(echelon, double) is None


@st.composite
def _sparse_systems(draw):
    """(rows, ncols): dense rows of Fractions, most entries zero."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(F(0)), st.just(F(0)), _RATIONALS)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_sparse_systems())
def test_sparse_echelon_is_echelon_insert_with_sympy_pivots(system):
    m, ncols = system
    rows, pivots = linalg._sparse_echelon(linalg._int_rows_sparse(m), ncols)
    _, theirs = sympy.Matrix(len(m), ncols, [
        sympy.Rational(x.numerator, x.denominator)
        for row in m for x in row]).rref()
    assert pivots == list(theirs)
    # each row leads on its own pivot, in increasing pivot order
    assert [min(row) for row in rows] == pivots
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    inserted = {}
    for row in m:
        echelon_insert(inserted, {j: x for j, x in enumerate(row) if x})
    assert sorted(inserted) == pivots
    assert rows == [inserted[c] for c in pivots]


_ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-6, 6),
                    _RATIONALS)


@st.composite
def _rows(draw):
    """A few rows on 5 columns, each a {col: value} dict (zeros kept or
    not) or a dense list, of ints, Fractions and zeros, or a dict of
    nonzero ints times 1, 2 or 3; the dicts of nonzero coprime ints are
    the rows _clear_row returns as they are."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        dense = draw(st.lists(_ENTRIES, min_size=5, max_size=5))
        kind = draw(st.sampled_from(["list", "sparse", "dense", "ints"]))
        if kind == "list":
            rows.append(dense)
        elif kind == "sparse":
            rows.append({j: x for j, x in enumerate(dense) if x})
        elif kind == "dense":
            rows.append(dict(enumerate(dense)))
        else:
            scale = draw(st.sampled_from([1, 2, 3]))
            ints = draw(st.lists(st.integers(-6, 6), min_size=5, max_size=5))
            rows.append({j: scale * x for j, x in enumerate(ints) if x})
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rows())
def test_clear_row_matches_the_copying_reference_and_mutates_nothing(rows):
    from copy import deepcopy

    from pairgen import clear_row_by_copy
    coprime = {0: 2, 3: -3}
    assert linalg._clear_row(coprime) is coprime
    before = deepcopy(rows)
    for row in rows:
        got = linalg._clear_row(row)
        want = clear_row_by_copy(row)
        assert list(got.items()) == list(want.items())
        assert all(type(x) is int for x in got.values())
        # only a dict of nonzero coprime ints is passed through uncopied
        assert (got is row) == (isinstance(row, dict) and row == want and all(
            type(x) is int for x in row.values()))
    # the pass-through hands the caller's dicts to the eliminations, so
    # none of these may write to a row it is given or holds
    rank(rows, 5)
    kernel_basis(rows, 5)
    span = Subspace.span(5, rows)
    assert span.contains_subspace(Subspace.span(5, deepcopy(before)))
    echelon = {}
    for row in rows:
        if isinstance(row, dict):
            echelon_insert(echelon, row)
    ops = [{j: row} for j, row in enumerate(rows) if isinstance(row, dict)]
    intersect_kernels(ops, len(rows))
    intersect_kernels(ops[:1] + ops, len(rows))
    assert rows == before


def test_entries_outside_the_columns_are_refused():
    # an entry at a column >= ncols is an error, not a dropped coordinate
    for call in (lambda: rank([{5: 1}], 3),
                 lambda: kernel_basis([{0: 1, 5: 1}], 3),
                 lambda: complex_ranks([({0: {0: 1, 4: 1}}, 3, 1)])):
        with pytest.raises(ValueError):
            call()
    assert rank([{2: 1}], 3) == 1
    assert kernel_basis([{0: 1, 2: 1}], 3).dim == 2
    assert complex_ranks([({0: {0: 1, 2: 1}}, 3, 1)]) == [1]


def test_complex_ranks_check_the_composites():
    # d0 = e0 + e1 on Q^2; d1 kills it, and ranks as a complex
    d0 = ({0: {0: 1, 1: 1}}, 2, 1)
    assert complex_ranks([d0, ({0: {0: 1}, 1: {0: -1}}, 1, 2)]) == [1, 1]
    # a corrupt entry in the column of d1 the clearing ranks (off P_0 =
    # {0}), and in the column on P_0 it never ranks: without the check
    # the latter would read rank d1 = 0
    for d1 in ({1: {0: 1}}, {0: {0: 1}}):
        with pytest.raises(RuntimeError,
                           match="differential composite in degree 1 "):
            complex_ranks([d0, (d1, 1, 2)])
    # d2 d1 != 0 while d1 d0 = 0 names degree 2
    d1 = ({0: {0: 1}, 1: {0: -1}}, 1, 2)
    with pytest.raises(RuntimeError,
                       match="differential composite in degree 2 "):
        complex_ranks([d0, d1, ({0: {0: 1}}, 1, 1)])


def test_kernel_back_substitution_keeps_the_number_rule():
    # each back-substituted value is an exact quotient: an int when it is
    # integral, else a Fraction, and the kernel is sympy's null space
    rng = random.Random(17)
    seen = set()
    for _ in range(40):
        rows, cols = rng.randrange(1, 6), rng.randrange(2, 8)
        m = _random_matrix(rng, rows, cols, density=0.6)
        ker = kernel_basis(m, cols)
        theirs = _sympy_of(m).nullspace()
        assert ker.dim == len(theirs)
        for v in theirs:
            assert ker.contains([F(x.p, x.q) for x in v])
        for col in ker.columns:
            for x in col.values():
                assert type(x) is int or (type(x) is F and x.denominator > 1)
                seen.add(type(x))
            assert not any(m.dot([col.get(j, 0) for j in range(cols)]))
    assert seen == {int, F}


def test_exact_reads_integer_strings_by_the_rational_rule():
    for text, want in (("12", 12), ("-0", 0), ("+7", 7), ("4/2", 2)):
        assert linalg.exact(text) == want and type(linalg.exact(text)) is int
    assert linalg.exact("-3/6") == F(-1, 2)
    for text in ("1_0", " 1", "1 ", "٣", "1.0", "", "+", "1/0", "0x1"):
        with pytest.raises(ValueError):
            linalg.exact(text)
    with pytest.raises(TypeError):
        linalg.exact(True)


def test_trace_gram_matches_dense_traces():
    rng = random.Random(3)
    mats = [_random_matrix(rng, 4, 4, density=0.5) for _ in range(5)]
    want = [[sum((A.dot(B))[k, k] for k in range(4)) for B in mats]
            for A in mats]
    assert trace_gram([_columns(A) for A in mats]) == want
    assert trace_gram([]) == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 12).flatmap(lambda q: st.tuples(
    st.just(q), st.lists(st.integers(0, (1 << q) - 1), max_size=6),
    st.integers(0, q + 1))))
def test_graded_monomials_match_the_sorting_reference(case):
    # doubling over the kernel basis of the masks' reduced echelon lists
    # the graded monomials of each degree in combinations order, as
    # enumerating the sums of a perp basis and sorting them did
    q, masks, top = case
    assert (linalg.graded_monomials(q, masks, top)
            == graded_monomials_by_sorting(q, masks, top))


def test_xor_echelon_is_reduced_and_spans_the_masks():
    rng = random.Random(11)
    for _ in range(200):
        q = rng.randint(1, 12)
        masks = [rng.randrange(1 << q) for _ in range(rng.randint(0, 8))]
        rows = linalg.xor_echelon(masks)
        for p, row in rows.items():
            assert 1 << (row.bit_length() - 1) == p
            assert all(not other & p for t, other in rows.items() if t != p)
        span = {0}
        for row in rows.values():
            span |= {x ^ row for x in span}
        assert len(span) == 1 << len(rows)
        assert all(s in span for s in masks)
