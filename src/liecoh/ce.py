"""Relative Chevalley-Eilenberg cochains of a compact homogeneous pair.

Real cohomology of the quotient is computed from the complex of horizontal,
isotropy-invariant alternating forms on the ambient algebra.  Horizontal
k-forms are coordinatised on wedges F_I = F_{i_1} ^ ... ^ F_{i_k} of a basis
F_1..F_q of the annihilator of h in the dual of g; together with test vectors
w_1..w_q chosen so that F_i(w_j) = delta_ij, the coefficient of a horizontal
form on F_I is simply its value on (w_{i_1}, ..., w_{i_k}), and the three
structure maps become explicit matrices:

* the infinitesimal isotropy action, (theta(Y)f)(x) = -f([Y, x]) on
  covectors, extended to wedges as a derivation;
* the component-generator action, f -> f o gamma^{-1} on covectors, extended
  multiplicatively;
* the differential
  (delta w)(X_0, ..., X_p) = sum_{i<j} (-1)^{i+j} w([X_i, X_j], ..., no
  X_i, ..., no X_j, ...), assembled from the projected structure constants
  F_c([w_a, w_b]), cleared to integers once with their common denominator
  D.  Every delta is linear in them, so the complex holds D * delta in
  every degree: same kernels, images and ranks, built in int arithmetic.

The degree-k cochain space is the joint kernel of the theta operators and
the fixed space of the generator actions inside the full wedge coordinates.
Every operator is a sparse {col: [(row, value)]} matrix, and the kernels are
intersected one operator at a time through nonzeros (intersect_kernels), so
no dense matrix on wedge coordinates is ever formed.  The resulting basis is
the identity on a set of free rows, so re-expressing the differential in the
invariant bases is a row selection of its images, and a sparse mat-vec
(basis times coordinates must give the image back) checks that the
differential does not escape the invariant space.  delta o delta = 0 is
checked on the wedge operators applied to the invariant basis.  Both checks
are consistency checks on the assembly, not assumptions.  When no
constraints are present (trivial isotropy, no generators) the invariant
space is the full wedge space and the wedge differential is kept as is.
Every rank is exact: the integer echelon ranks the columns of each
differential as rows, since rank(A) = rank(A^T).
"""

import os
from collections import namedtuple
from itertools import chain, combinations
from math import lcm

from .betti import BettiReport
from .linalg import (F0, F1, dot, intersect_kernels, kernel_basis, rank,
                     solve_many, sparse_columns)
from .pairs import validate_pair

DEFAULT_SIZE_CAP = 14


def _effective_size_cap(size_cap):
    if size_cap is not None:
        return int(size_cap)
    env = os.environ.get("LIECOH_SIZE_CAP")
    return int(env) if env else DEFAULT_SIZE_CAP


# column-major sparse matrix: cols[j] = [(i, value), ...]
_SparseDelta = namedtuple("_SparseDelta", "cols nrows ncols")


class RelativeComplex:
    """Invariant cochain spaces and differentials, degrees 0..max_degree+1.

    bases[k] is the degree-k cochain space as a Subspace of wedge
    coordinates held in sparse columns, with None meaning the full wedge
    space (no isotropy or generator constraints).  deltas[k] is scale times
    the differential from degree k to k+1 in those bases, a _SparseDelta;
    scale is D, 1 when the projected structure constants are integers.
    """

    def __init__(self, pair, annihilator, quotient_dim, max_degree, dims,
                 bases, deltas, scale):
        self.pair = pair
        self.horizontal_annihilator = annihilator
        self.quotient_dim = quotient_dim
        self.max_degree = max_degree
        self.dims = dims
        self.bases = bases
        self.deltas = deltas
        self.scale = scale


def _dual_frame(pair):
    """Annihilator basis of h in g*, plus test vectors dual to it."""
    ann = kernel_basis(pair.h_basis.T)
    frame = ann.basis                      # n x q, columns are covectors
    # tests = frame (frame^T frame)^-1, transposed through the symmetric Gram
    coords = solve_many(dot(frame.T, frame), frame.T)
    if coords is None:
        raise ValueError("annihilator Gram matrix is singular")
    return ann, frame, coords.T


def _theta_matrices(pair, frame, tests):
    """theta(Y) on the annihilator, per h basis vector, as sparse columns."""
    alg = pair.algebra
    mats = []
    for t in range(pair.h_basis.shape[1]):
        ad_y = alg.ad_matrix(pair.h_basis[:, t])
        evals = dot(frame.T, dot(ad_y, tests))   # evals[i, j] = F_i([y, w_j])
        mats.append(sparse_columns(-evals.T))
    return mats


def _generator_matrices(pair, frame, tests):
    """Pullback action on the annihilator, per generator, as sparse columns."""
    mats = []
    for gamma in pair.generators:
        moved = solve_many(gamma, tests)   # gamma^{-1} applied to the tests
        if moved is None:
            raise ValueError("generator matrix is singular")
        evals = dot(frame.T, moved)
        mats.append(sparse_columns(evals.T))  # column i = coords of F_i o gamma^{-1}
    return mats


def _structure_table(alg, frame, tests):
    """({(a, b): [(c, D * F_c([w_a, w_b]))]}, D), all ints.

    D is the lcm of the denominators of the projected structure constants.
    """
    q = tests.shape[1]
    table = {}
    for a in range(q):
        for b in range(a + 1, q):
            v = dot(frame.T, alg.bracket(tests[:, a], tests[:, b]))
            entries = [(c, v[c]) for c in range(q) if v[c]]
            if entries:
                table[(a, b)] = entries
    scale = lcm(*(x.denominator for entries in table.values()
                  for _, x in entries))
    return ({key: [(c, x.numerator * (scale // x.denominator))
                   for c, x in entries] for key, entries in table.items()},
            scale)


def _derivation_op(theta, subsets, index):
    """Sparse matrix of a derivation on wedge coordinates of one degree."""
    op = {}
    for col, mon in enumerate(subsets):
        inside = set(mon)
        acc = {}
        for i in mon:
            for t, c in theta.get(i, ()):
                if t == i:
                    acc[col] = acc.get(col, F0) + c
                elif t not in inside:
                    lo, hi = (t, i) if t < i else (i, t)
                    crossings = sum(1 for u in mon if lo < u < hi)
                    row = index[tuple(sorted(inside - {i} | {t}))]
                    val = -c if crossings % 2 else c
                    acc[row] = acc.get(row, F0) + val
        entries = [(r, v) for r, v in acc.items() if v]
        if entries:
            op[col] = entries
    return op


def _wedge_column(action, mon, memo):
    """Coordinates of the wedge of action-columns over mon, as {subset: value}."""
    if mon in memo:
        return memo[mon]
    if not mon:
        col = {(): F1}
    elif len(mon) == 1:
        col = {(t,): c for t, c in action.get(mon[0], ())}
    else:
        prev = _wedge_column(action, mon[:-1], memo)
        col = {}
        for t, c in action.get(mon[-1], ()):
            for part, v in prev.items():
                if t in part:
                    continue
                above = sum(1 for u in part if u > t)
                w = -v * c if above % 2 else v * c
                key = tuple(sorted(part + (t,)))
                col[key] = col.get(key, F0) + w
        col = {key: v for key, v in col.items() if v}
    memo[mon] = col
    return col


def _fixed_op(action, subsets, index, memo):
    """Sparse matrix of (gamma* - 1) on wedge coordinates of one degree."""
    op = {}
    for col, mon in enumerate(subsets):
        acc = {index[key]: v for key, v in _wedge_column(action, mon, memo).items()}
        acc[col] = acc.get(col, F0) - F1
        entries = [(r, v) for r, v in acc.items() if v]
        if entries:
            op[col] = entries
    return op


def _invariant_space(theta_mats, gen_mats, gen_memos, subsets, index):
    """Invariant degree-k coordinates as a sparse Subspace, or None for all."""
    if not theta_mats and not gen_mats:
        return None
    # lazily built, so no operator is assembled once the space is zero
    ops = chain((_derivation_op(t, subsets, index) for t in theta_mats),
                (_fixed_op(a, subsets, index, m)
                 for a, m in zip(gen_mats, gen_memos)))
    return intersect_kernels(ops, len(subsets))


def _delta_op(table, subsets_next, index, degree):
    """Sparse differential from wedge degree k to k+1 over the test frame."""
    op = {}
    for row, mon in enumerate(subsets_next):
        for s in range(degree + 1):
            for t in range(s + 1, degree + 1):
                entries = table.get((mon[s], mon[t]))
                if not entries:
                    continue
                rest = mon[:s] + mon[s + 1:t] + mon[t + 1:]
                for c, val in entries:
                    if c in rest:
                        continue
                    below = sum(1 for u in rest if u < c)
                    key = list(rest)
                    key.insert(below, c)
                    col = index[tuple(key)]
                    coeff = -val if (s + t + below) % 2 else val
                    acc = op.setdefault(col, {})
                    acc[row] = acc.get(row, 0) + coeff
    return {col: [(r, v) for r, v in acc.items() if v]
            for col, acc in op.items()}


def _product(a, b):
    """a.b for sparse column matrices {col: [(row, value)]}; zero columns dropped."""
    out = {}
    for j, entries in b.items():
        acc = {}
        for mid, x in entries:
            for row, v in a.get(mid, ()):
                acc[row] = acc.get(row, 0) + v * x
        col = [(r, v) for r, v in acc.items() if v]
        if col:
            out[j] = col
    return out


def _column_form(basis):
    return {j: col.items() for j, col in enumerate(basis.columns)}


def _restrict_delta(images, basis_next, nrows_full, ncols):
    """Coordinates of the images in the next invariant basis.

    A kernel basis is the identity on its free rows, so the coordinates are
    the image entries on those rows; mapping them back through the basis
    must then reproduce every image exactly.
    """
    if basis_next is None:
        return _SparseDelta(images, nrows_full, ncols)
    slot = {row: pos for pos, row in enumerate(basis_next.free)}
    coords = {}
    for j, entries in images.items():
        col = [(slot[r], v) for r, v in entries if r in slot]
        if col:
            coords[j] = col
    back = _product(_column_form(basis_next), coords)
    if any(dict(back.get(j, ())) != dict(entries)
           for j, entries in images.items()):
        raise RuntimeError("invariance projection inconsistent: the "
                           "differential escapes the invariant cochain space")
    return _SparseDelta(coords, basis_next.dim, ncols)


def relative_complex(pair, max_degree=None, size_cap=None, validate=True):
    """Assemble the invariant cochain complex through max_degree (+1 spaces).

    Raises ValueError when the quotient dimension exceeds the size cap
    (default 14, or the LIECOH_SIZE_CAP environment variable); pass size_cap
    explicitly to override for a single call.
    """
    if validate:
        validate_pair(pair).ensure()
    alg = pair.algebra
    q = alg.n - pair.h.dim
    cap = _effective_size_cap(size_cap)
    if q > cap:
        raise ValueError(
            "quotient dimension %d exceeds the size cap %d; set LIECOH_SIZE_CAP "
            "or pass size_cap to go further" % (q, cap))
    top = q if max_degree is None else max(0, min(int(max_degree), q))
    ann, frame, tests = _dual_frame(pair)
    theta_mats = _theta_matrices(pair, frame, tests)
    gen_mats = _generator_matrices(pair, frame, tests)
    gen_memos = [{} for _ in gen_mats]
    table, scale = _structure_table(alg, frame, tests)

    subsets, indexes, bases, dims = [], [], [], []
    for k in range(top + 2):
        subs = list(combinations(range(q), k))
        idx = {mon: pos for pos, mon in enumerate(subs)}
        basis = _invariant_space(theta_mats, gen_mats, gen_memos, subs, idx)
        subsets.append(subs)
        indexes.append(idx)
        bases.append(basis)
        dims.append(len(subs) if basis is None else basis.dim)
    if dims[0] != 1:
        raise RuntimeError("degree-0 cochain space is not one-dimensional; "
                           "cochain assembly is inconsistent")

    # each op is D * delta_k; delta_k delta_{k-1} B_{k-1} = 0 on wedge
    # coordinates is delta o delta = 0 on the invariant complex, since the
    # bases are injective
    deltas, lower = [], None
    for k in range(top + 1):
        op = _delta_op(table, subsets[k + 1], indexes[k], k)
        if lower is not None and _product(op, lower):
            raise RuntimeError("differential composite in degree %d is "
                               "nonzero; cochain assembly is inconsistent" % k)
        lower = op if bases[k] is None else _product(op, _column_form(bases[k]))
        deltas.append(_restrict_delta(lower, bases[k + 1],
                                      len(subsets[k + 1]), dims[k]))
    return RelativeComplex(pair, ann, q, top, dims, bases, deltas, scale)


def _delta_rank(delta):
    """Exact rank of a restricted differential, through its columns."""
    return rank([dict(entries) for entries in delta.cols.values()], delta.nrows)


def betti_ce(pair, max_degree=None, size_cap=None, validate=True):
    """Betti numbers from the invariant cochain complex (exact ranks)."""
    cx = relative_complex(pair, max_degree=max_degree, size_cap=size_cap,
                          validate=validate)
    ranks = [_delta_rank(delta) for delta in cx.deltas]
    betti = [cx.dims[k] - ranks[k] - (ranks[k - 1] if k else 0)
             for k in range(cx.max_degree + 1)]
    if betti[0] != 1:
        raise RuntimeError("degree-0 cohomology is not one-dimensional; "
                           "the quotient must be connected")
    return BettiReport(
        betti, "ce",
        intermediates={"quotient_dim": cx.quotient_dim,
                       "max_degree": cx.max_degree},
        diagnostics={"complex_dims": cx.dims[:cx.max_degree + 1],
                     "ranks": ranks})


def poincare_check(report, dim_quotient):
    """Whether the full Betti vector satisfies b_k = b_{dim-k}.

    Meaningful for connected isotropy (no component generators) with the
    complex computed through the top degree.
    """
    betti = report.betti
    if len(betti) != dim_quotient + 1:
        raise ValueError("Poincare check needs the full cohomology vector "
                         "(max degree %d)" % dim_quotient)
    return all(betti[k] == betti[dim_quotient - k]
               for k in range(dim_quotient + 1))
