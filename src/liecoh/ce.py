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
  F_c([w_a, w_b]).

The degree-k cochain space is the joint kernel of the theta operators and
the fixed space of the generator actions inside the full wedge coordinates.
The differential is then re-expressed in the invariant bases; that this is
possible at all is a consistency check on the assembly, not an assumption.
When no constraints are present (trivial isotropy, no generators) the
invariant space is the full wedge space and the differential is kept as a
sparse matrix.  Every rank is exact: sparse differentials are ranked through
their columns as {row: value} rows, since rank(A) = rank(A^T).
"""

import os
from itertools import combinations

from .betti import BettiReport
from .linalg import (F0, F1, feye, fzeros, inverse, is_zero, kernel_basis,
                     rank, solve_many)
from .pairs import validate_pair

DEFAULT_SIZE_CAP = 14


def _effective_size_cap(size_cap):
    if size_cap is not None:
        return int(size_cap)
    env = os.environ.get("LIECOH_SIZE_CAP")
    return int(env) if env else DEFAULT_SIZE_CAP


class _SparseDelta:
    """Column-major sparse matrix: cols[j] = [(i, value), ...]."""

    def __init__(self, cols, nrows, ncols):
        self.cols = cols
        self.nrows = nrows
        self.ncols = ncols


class RelativeComplex:
    """Invariant cochain spaces and differentials, degrees 0..max_degree+1.

    bases[k] has the degree-k cochain space as columns in wedge coordinates,
    with None meaning the full wedge space (no isotropy or generator
    constraints).  deltas[k] is the differential from degree k to k+1 in
    those bases: a dense matrix, or a _SparseDelta on unconstrained degrees.
    """

    def __init__(self, pair, annihilator, quotient_dim, max_degree, dims,
                 bases, deltas):
        self.pair = pair
        self.horizontal_annihilator = annihilator
        self.quotient_dim = quotient_dim
        self.max_degree = max_degree
        self.dims = dims
        self.bases = bases
        self.deltas = deltas


def _dual_frame(pair):
    """Annihilator basis of h in g*, plus test vectors dual to it."""
    ann = kernel_basis(pair.h_basis.T)
    frame = ann.basis                      # n x q, columns are covectors
    tests = frame.dot(inverse(frame.T.dot(frame)))
    return ann, frame, tests


def _theta_matrices(pair, frame, tests):
    """Coordinate matrix of theta(Y) on the annihilator, per h basis vector."""
    alg = pair.algebra
    mats = []
    for t in range(pair.h_basis.shape[1]):
        ad_y = alg.ad_matrix(pair.h_basis[:, t])
        evals = frame.T.dot(ad_y.dot(tests))   # evals[i, j] = F_i([y, w_j])
        mats.append(-evals.T)
    return mats


def _generator_matrices(pair, frame, tests):
    """Coordinate matrix of the pullback action on the annihilator."""
    mats = []
    for gamma in pair.generators:
        evals = frame.T.dot(inverse(gamma).dot(tests))
        mats.append(evals.T)               # column i = coords of F_i o gamma^{-1}
    return mats


def _structure_table(alg, frame, tests):
    """Projected structure constants: (a, b) -> [(c, F_c([w_a, w_b]))]."""
    q = tests.shape[1]
    table = {}
    for a in range(q):
        for b in range(a + 1, q):
            v = frame.T.dot(alg.bracket(tests[:, a], tests[:, b]))
            entries = [(c, v[c]) for c in range(q) if v[c]]
            if entries:
                table[(a, b)] = entries
    return table


def _derivation_op(theta, subsets, index):
    """Sparse matrix of a derivation on wedge coordinates of one degree."""
    q = theta.shape[0]
    op = {}
    for col, mon in enumerate(subsets):
        inside = set(mon)
        acc = {}
        for i in mon:
            for t in range(q):
                c = theta[t, i]
                if not c:
                    continue
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
    q = action.shape[0]
    if not mon:
        col = {(): F1}
    elif len(mon) == 1:
        i = mon[0]
        col = {(t,): action[t, i] for t in range(q) if action[t, i]}
    else:
        prev = _wedge_column(action, mon[:-1], memo)
        last = mon[-1]
        col = {}
        for t in range(q):
            c = action[t, last]
            if not c:
                continue
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


def _pullback(action, coords, subsets, index, memo):
    """Generator image of a cochain given by wedge coordinates, as {row: value}."""
    out = {}
    for pos, mon in enumerate(subsets):
        c = coords[pos]
        if not c:
            continue
        for key, v in _wedge_column(action, mon, memo).items():
            row = index[key]
            out[row] = out.get(row, F0) + c * v
    return out


def _apply_sparse_cols(cols, basis, nrows):
    d = basis.shape[1]
    out = fzeros(nrows, d)
    for col, entries in cols.items():
        brow = basis[col]
        for j in range(d):
            x = brow[j]
            if x:
                for row, v in entries:
                    out[row, j] += v * x
    return out


def _sparse_to_dense(cols, nrows, ncols):
    out = fzeros(nrows, ncols)
    for col, entries in cols.items():
        for row, v in entries:
            out[row, col] = v
    return out


def _invariant_space(theta_mats, gen_mats, gen_memos, subsets, index):
    """Basis of the invariant degree-k coordinates, or None for all of them."""
    total = len(subsets)
    if total == 0:
        return fzeros(0, 0)
    if not theta_mats and not gen_mats:
        return None
    basis = feye(total)
    for theta in theta_mats:
        if basis.shape[1] == 0:
            return basis
        op = _derivation_op(theta, subsets, index)
        basis = basis.dot(kernel_basis(_apply_sparse_cols(op, basis, total)).basis)
    for action, memo in zip(gen_mats, gen_memos):
        if basis.shape[1] == 0:
            return basis
        moved = fzeros(total, basis.shape[1])
        for j in range(basis.shape[1]):
            img = _pullback(action, basis[:, j], subsets, index, memo)
            for row, v in img.items():
                moved[row, j] += v
            for row in range(total):
                if basis[row, j]:
                    moved[row, j] -= basis[row, j]
        basis = basis.dot(kernel_basis(moved).basis)
    return basis


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
                    acc[row] = acc.get(row, F0) + coeff
    return {col: [(r, v) for r, v in acc.items() if v]
            for col, acc in op.items()}


def _restrict_delta(op, basis_k, basis_next, ncols_full, nrows_full):
    if basis_k is None and basis_next is None:
        return _SparseDelta(op, nrows_full, ncols_full)
    if basis_k is None:
        images = _sparse_to_dense(op, nrows_full, ncols_full)
    else:
        images = _apply_sparse_cols(op, basis_k, nrows_full)
    if basis_next is None:
        return images
    coords = solve_many(basis_next, images)
    if coords is None:
        raise RuntimeError("invariance projection inconsistent: the "
                           "differential escapes the invariant cochain space")
    return coords


def _compose_is_zero(upper, lower):
    """Whether the degree-(k+1) map annihilates the image of the degree-k map."""
    if isinstance(lower, _SparseDelta) and isinstance(upper, _SparseDelta):
        for entries in lower.cols.values():
            acc = {}
            for mid, v in entries:
                for row, u in upper.cols.get(mid, ()):
                    acc[row] = acc.get(row, F0) + v * u
            if any(acc.values()):
                return False
        return True
    if isinstance(lower, _SparseDelta):
        lower = _sparse_to_dense(lower.cols, lower.nrows, lower.ncols)
    if isinstance(upper, _SparseDelta):
        return is_zero(_apply_sparse_cols(upper.cols, lower, upper.nrows))
    return is_zero(upper.dot(lower))


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
    table = _structure_table(alg, frame, tests)

    subsets, indexes, bases, dims = [], [], [], []
    for k in range(top + 2):
        subs = list(combinations(range(q), k))
        idx = {mon: pos for pos, mon in enumerate(subs)}
        basis = _invariant_space(theta_mats, gen_mats, gen_memos, subs, idx)
        subsets.append(subs)
        indexes.append(idx)
        bases.append(basis)
        dims.append(len(subs) if basis is None else basis.shape[1])
    if dims[0] != 1:
        raise RuntimeError("degree-0 cochain space is not one-dimensional; "
                           "cochain assembly is inconsistent")

    deltas = []
    for k in range(top + 1):
        op = _delta_op(table, subsets[k + 1], indexes[k], k)
        deltas.append(_restrict_delta(op, bases[k], bases[k + 1],
                                      len(subsets[k]), len(subsets[k + 1])))
    for k in range(1, top + 1):
        if not _compose_is_zero(deltas[k], deltas[k - 1]):
            raise RuntimeError("differential composite in degree %d is "
                               "nonzero; cochain assembly is inconsistent" % k)
    return RelativeComplex(pair, ann, q, top, dims, bases, deltas)


def _delta_rank(delta):
    """Exact rank of a restricted differential, dense or sparse."""
    if isinstance(delta, _SparseDelta):
        return rank([dict(entries) for entries in delta.cols.values()],
                    delta.nrows)
    return rank(delta)


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
