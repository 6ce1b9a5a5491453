"""Exact rational linear algebra on sparse columns.

A vector, and a column of a matrix, is a {row: value} dict holding no zero
value; a value is an int when integral, else a Fraction (exact), and every
quotient goes through Fraction.  A matrix is a list of such columns, or a
{col: column} dict that leaves its zero columns out, as SparseMatrix.cols
does.  transpose turns the columns into {row: {col: value}} rows; rank and
kernel_basis read the dicts they are given as rows, and also take plain
sequences.  {(a, b): value} dicts are bilinear forms, not matrices.
Every elimination goes through one exact loop, _insert: a row is cleared
to integers once (lcm of denominators) and held as a {col: int} dict;
while its leading column holds an echelon row, the gcd-scaled two-term
update clears that column, and otherwise the row is stored there.  So no
rationals appear inside the hot loop and the cost tracks the nonzero
structure.  _sparse_echelon inserts a batch of rows, echelon_insert one
row at a time.  Ranks count the pivots (complex_ranks carries them from
one map of a complex to the next), and kernels back-substitute through
the echelon rows (_kernel_columns).  is_spd reads the signs of a Gram
matrix's pivots through the same integer update, on input only; it
computes no rank or solution.

A Subspace holds sparse basis columns only: the echelon rows of
Subspace.span, the back-substituted kernel columns.  Equality, intersect
and sum work on them.  Coordinates in independent columns are unique:
coordinates reads them through the Subspace's solver, built once (on a
kernel basis, its free rows), and checks them by mapping them back.

Ordering conventions used throughout the package: symmetric index pairs are
(i, j) with i <= j in lexicographic order, exterior tuples are strictly
increasing tuples in lexicographic order (itertools.combinations order).
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm

F0 = Fraction(0)
F1 = Fraction(1)

# document numbers: an integer, optionally over a /[0-9]+ denominator
INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(INTEGER.pattern + r"(/[0-9]+)?")

# a matrix with its shape: cols is a {col: column} dict without zero columns
SparseMatrix = namedtuple("SparseMatrix", "cols nrows ncols")


def fr(x):
    """Fraction from an int, a Fraction, or a string "p" / "p/q" with q != 0;
    any other string (decimals, exponents, spaces) is a ValueError, and a
    bool, like any other type, a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x) or not int(x.partition("/")[2] or 1):
            raise ValueError("not a rational p or p/q with q != 0: %r" % (x,))
        return Fraction(x)
    raise TypeError("not an exact rational: %r" % (x,))


def exact(x):
    """fr(x) held by the package's number rule: an int when integral; an
    integer string goes to int() at once."""
    if type(x) is int:
        return x
    if type(x) is str and INTEGER.fullmatch(x):
        return int(x)
    x = fr(x)
    return x.numerator if x.denominator == 1 else x


def rat_str(q):
    """Serialize a rational as "p" (denominator 1) or "p/q"."""
    return str(exact(q))


# ---------------------------------------------------------------------------
# fraction-free elimination core
# ---------------------------------------------------------------------------

def _indexed(m):
    """(index, entry) pairs of a dict or of a sequence."""
    return m.items() if isinstance(m, dict) else enumerate(m)


def nonzero(acc):
    """The {row: value} column acc without its zero values; acc itself
    when it holds none."""
    return acc if all(acc.values()) else {r: x for r, x in acc.items() if x}


def _clear_row(row):
    """A row, a dense sequence or a sparse dict of Fractions or ints,
    cleared to coprime integers as one {col: int} dict ({} when zero)."""
    ints = {j: x for j, x in _indexed(row) if x}
    if not ints:
        return ints
    if not all(type(x) is int for x in ints.values()):
        den = lcm(*(x.denominator for x in ints.values()))
        ints = {j: x.numerator * (den // x.denominator)
                for j, x in ints.items()}
    g = gcd(*ints.values())
    if g > 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


def _int_rows_sparse(m):
    """The nonzero rows of m, each cleared by _clear_row."""
    return [ints for ints in map(_clear_row, m) if ints]


def _insert(echelon, v):
    """Reduce the integer row v into echelon, a {pivot column: {col: int}}
    dict whose rows hold no column before their pivot, grown in place: the
    row held at v's leading column clears it, until v is zero (None) or
    leads on a column no row holds, where v is stored and returned."""
    while v:
        c = min(v)
        prow = echelon.get(c)
        if prow is None:
            echelon[c] = v
            return v
        v = _eliminate(v, prow, c)
    return None


def _sparse_echelon(rows, ncols):
    """Integer row echelon on sparse rows; returns (pivot rows, pivot columns).

    rows is an iterable of nonzero {col: int} dicts on columns 0..ncols-1
    (ValueError for an entry outside them).  Each row is inserted in turn
    through _insert, so the pivot set is the one of any echelon of rows;
    the rows come back in increasing pivot order, each holding no column
    before its pivot.
    """
    echelon = {}
    for v in rows:
        if min(v) < 0 or max(v) >= ncols:
            raise ValueError("row entry outside columns 0..%d" % (ncols - 1))
        _insert(echelon, v)
    pivots = sorted(echelon)
    return [echelon[c] for c in pivots], pivots


def _eliminate(r, prow, c):
    """The integer row r with column c cleared by the pivot row prow.

    Uses the gcd-scaled two-term update r <- (piv//g)*r - (lead//g)*prow
    and divides the result by the gcd of its entries.
    """
    piv = prow[c]
    lead = r[c]
    g = gcd(piv, lead)
    a, b = piv // g, lead // g
    new = {}
    g2 = 0
    for col, v in r.items():
        w = a * v - b * prow.get(col, 0)
        if w:
            new[col] = w
            g2 = gcd(g2, w)
    for col, v in prow.items():
        if col not in r:
            w = -b * v
            new[col] = w
            g2 = gcd(g2, w)
    if g2 > 1:
        new = {col: v // g2 for col, v in new.items()}
    return new


def echelon_insert(echelon, v):
    """_insert of the sparse {col: value} vector v cleared to integers:
    the new echelon row, or None when v lies in the span."""
    return _insert(echelon, _clear_row(v))


def rank(m, ncols):
    """Exact rank over the rationals of the rows m, each a sparse {col:
    value} dict or a sequence (Fractions or ints), with ncols columns (an
    entry outside them is a ValueError)."""
    _, pivots = _sparse_echelon(_int_rows_sparse(m), ncols)
    return len(pivots)


def complex_ranks(maps):
    """Exact ranks of the consecutive maps d_0, d_1, ... of a complex.

    Each map is (cols, nrows, ncols), cols its {col: column} dict; the rows
    of d_k are the columns of d_{k+1}.  Precondition:
    d_{k+1} d_k = 0, checked by the caller; otherwise the ranks are wrong.
    The echelon of d_k's columns spans im d_k with distinct leading rows
    P_k; those vectors and the unit vectors off P_k are a triangular basis
    of the next space, and d_{k+1} kills the former, so rank d_{k+1} is the
    rank of its columns off P_k.  This is the clearing rule of persistent
    homology (Chen & Kerber, 2011): the elimination sees rank d_k fewer
    columns of d_{k+1}, most of those that would have reduced to zero.
    """
    ranks, cleared = [], set()
    for cols, nrows, ncols in maps:
        rows = _int_rows_sparse(cols.get(j, {}) for j in range(ncols)
                                if j not in cleared)
        _, pivots = _sparse_echelon(rows, nrows)
        ranks.append(len(pivots))
        cleared = set(pivots)
    return ranks


def _kernel_columns(rows, ncols):
    """Kernel of sparse integer rows as (columns, free).

    Each column is a {col: value} dict with a 1 on its own free column
    and zeros on every other free column, so free[j] is a coordinate on
    which basis column j alone is nonzero.
    """
    rows, pivots = _sparse_echelon(rows, ncols)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    # an echelon row holds no column before its pivot, so back-substitution
    # runs over rows in decreasing order and only visits those that hold a
    # coordinate the vector already has
    holders = {}
    for i, row in enumerate(rows):
        for j in row:
            if j != pivots[i]:
                holders.setdefault(j, []).append(-i)
    cols = []
    for f in free:
        v = {f: 1}
        heap = list(holders.get(f, ()))
        heapify(heap)
        queued = set(heap)
        while heap:
            i = -heappop(heap)
            row = rows[i]
            s = 0
            for j, val in row.items():
                x = v.get(j)
                if x is not None:
                    s += val * x
            if s:
                pc = pivots[i]
                q, rem = divmod(-s, row[pc])
                v[pc] = Fraction(-s, row[pc]) if rem else q
                for key in holders.get(pc, ()):
                    if key not in queued:
                        queued.add(key)
                        heappush(heap, key)
        cols.append(v)
    return cols, free


def kernel_basis(m, ncols):
    """Subspace {v : m v = 0} of Q^ncols, for rows m as in rank."""
    cols, free = _kernel_columns(_int_rows_sparse(m), ncols)
    return Subspace.from_columns(ncols, cols, free)


def coordinates(space, vectors):
    """Coordinates {j: value} of sparse {row: value} vectors, holding no
    zero entries, in the columns B of a Subspace: (B_P)^-1 v_P through the
    space's solver, checked by mapping them back (ValueError if a vector
    does not lie in the subspace)."""
    coords = [{j: exact(x) for j, x in combination(space.solver, v).items()}
              for v in vectors]
    if any(combination(space.columns, c) != v
           for c, v in zip(coords, vectors)):
        raise ValueError("vector escapes the subspace")
    return coords


def is_spd(gram):
    """True iff gram, given by its rows, is symmetric positive definite.

    Exact and fraction-free: the rows are cleared to integers with one
    positive denominator, and Sylvester's criterion (every leading
    principal minor positive) is read off the pivots of an elimination
    without row exchanges.  Once a pivot is positive, _eliminate scales
    the rows below it by positive factors only, which keeps the sign of
    every leading minor, so each pivot has the sign of the ratio of two
    consecutive minors.
    """
    a = [[exact(x) for x in row] for row in gram]
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    den = lcm(*(x.denominator for row in a for x in row
                if type(x) is Fraction))
    rows = [{j: int(x * den) for j, x in enumerate(row) if x} for row in a]
    if any(rows[j].get(i, 0) != x for i, row in enumerate(rows)
           for j, x in row.items()):
        return False
    for k in range(n):
        prow = rows[k]
        if prow.get(k, 0) <= 0:
            return False
        for i in range(k + 1, n):
            if k in rows[i]:
                rows[i] = _eliminate(rows[i], prow, k)
    return True


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A linear subspace of Q^n, held as sparse basis columns.

    columns holds one {row: value} dict per basis vector (Fraction or int
    values, no zeros).  free is set for kernel bases (see from_columns), else None.  Two
    subspaces are equal iff their ambient and own dimensions agree and
    their columns together add no rank.
    """

    def __init__(self, ambient_dim, basis):
        """The span of the independent columns of an n x k matrix given by
        its rows (nested lists, or any iterable of rows)."""
        rows = [[exact(x) for x in row] for row in basis]
        if len(rows) != ambient_dim:
            raise ValueError("basis rows != ambient dimension")
        k = len(rows[0]) if rows else 0
        if any(len(row) != k for row in rows):
            raise ValueError("basis rows differ in length")
        columns = [{i: r[j] for i, r in enumerate(rows) if r[j]}
                   for j in range(k)]
        if rank(columns, ambient_dim) != k:
            raise ValueError("basis columns are dependent")
        self.ambient_dim = ambient_dim
        self.columns = columns
        self.free = None

    @classmethod
    def from_columns(cls, ambient_dim, columns, free=None):
        """Subspace from independent sparse {row: value} basis columns.

        free[j], when given, is a row on which column j is 1 and every other
        column is 0, as in a kernel basis.
        """
        s = cls.__new__(cls)
        s.ambient_dim = ambient_dim
        s.columns = columns
        s.free = free
        return s

    @classmethod
    def span(cls, ambient_dim, vectors):
        """Subspace spanned by the given vectors (dependencies allowed).

        Each vector is a sequence of length ambient_dim or a sparse
        {index: value} dict.  The columns are the integer echelon rows of
        the vectors.
        """
        rows, _ = _sparse_echelon(_int_rows_sparse(
            v if isinstance(v, dict) else [fr(x) for x in v]
            for v in vectors), ambient_dim)
        return cls.from_columns(ambient_dim, rows)

    @property
    def dim(self):
        return len(self.columns)

    @cached_property
    def solver(self):
        """{p: (B_P)^-1 e_p} over rows P on which the basis B is invertible,
        built once: P is the pivot set of the echelon of B's columns, and
        free column k + i of [B_P | 1] has kernel column -(B_P)^-1 e_i on
        its first k rows.  A kernel basis has P = free and B_P = 1."""
        if self.free is not None:
            return {r: {j: 1} for j, r in enumerate(self.free)}
        k = self.dim
        _, pivots = _sparse_echelon(_int_rows_sparse(self.columns),
                                    self.ambient_dim)
        rows = transpose(self.columns)
        cols, _ = _kernel_columns(_int_rows_sparse(
            {**rows[p], k + i: 1} for i, p in enumerate(pivots)), 2 * k)
        return {p: {j: -x for j, x in col.items() if j < k}
                for p, col in zip(pivots, cols)}

    def contains(self, v):
        """True iff v, a sequence or a sparse dict, lies in the subspace."""
        return rank(self.columns + [v], self.ambient_dim) == self.dim

    def contains_subspace(self, other):
        return rank(self.columns + other.columns, self.ambient_dim) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.dim == other.dim
                and self.contains_subspace(other))

    def __repr__(self):
        return "Subspace(dim=%d in Q^%d)" % (self.dim, self.ambient_dim)


def zero_subspace(n):
    return Subspace.from_columns(n, [], [])


def full_subspace(n):
    return Subspace.from_columns(n, [{i: 1} for i in range(n)], list(range(n)))


def combination(columns, coeffs):
    """sum_j coeffs[j] * columns[j] for a matrix given by its columns.

    coeffs is a {j: value} dict; the result is a {row: value} dict without
    zeros.
    """
    acc = {}
    for j, a in coeffs.items():
        try:
            col = columns[j]
        except KeyError:        # a zero column the dict leaves out
            continue
        for r, x in col.items():
            acc[r] = acc.get(r, 0) + a * x
    return nonzero(acc)


def intersect(s1, s2):
    """Intersection of two subspaces of the same ambient space.

    Each kernel vector c of [B1 | -B2] gives the common vector B1 c[:dim s1].
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if s1.dim == 0 or s2.dim == 0:
        return zero_subspace(s1.ambient_dim)
    k = s1.dim
    rows = transpose(s1.columns + [{i: -x for i, x in col.items()}
                                   for col in s2.columns])
    ker, _ = _kernel_columns(_int_rows_sparse(rows.values()), k + s2.dim)
    return Subspace.span(s1.ambient_dim, [
        combination(s1.columns, {j: a for j, a in c.items() if j < k})
        for c in ker])


def subspace_sum(s1, s2):
    """Sum s1 + s2 of two subspaces of the same ambient space."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.span(s1.ambient_dim, s1.columns + s2.columns)


def transpose(columns):
    """The rows {row: {col: value}} of a matrix given by its columns."""
    rows = {}
    for j, col in _indexed(columns):
        for r, x in col.items():
            rows.setdefault(r, {})[j] = x
    return rows


def trace_gram(mats):
    """Rows of the Gram matrix trace(A_i A_j) of square matrices A_i given
    by their columns, one transposed pass per A_i."""
    K = [[0] * len(mats) for _ in mats]
    for i, rows in enumerate(map(transpose, mats)):
        for j in range(i, len(mats)):
            t = 0
            for b, col in _indexed(mats[j]):
                if row := rows.get(b):
                    for a, d in col.items():
                        if c := row.get(a):
                            t += c * d
            K[i][j] = K[j][i] = t
    return K


def minus_identity(columns, n):
    """The {col: column} dict of A - 1 for an n x n matrix A given by its
    columns."""
    cols = {j: dict(col) for j, col in _indexed(columns)}
    for j in range(n):
        col = cols.setdefault(j, {})
        col[j] = col.get(j, 0) - 1
    return {j: nz for j, col in cols.items() if (nz := nonzero(col))}


def sparse_product(a, b):
    """a.b as a {col: column} dict, one combination of a's columns per
    column of b."""
    return {j: col for j, c in _indexed(b) if (col := combination(a, c))}


def commutant_operator(columns, m, start):
    """Sparse columns of P -> PR - RP on m x m matrices P.

    R is given by its columns, with rows and columns numbered from start;
    P[a, b] is the coordinate a*m + b.  The kernel of the operator is
    {P : PR = RP}.
    """
    op, diag = {}, {}
    for t, col in _indexed(columns):
        t -= start
        for b, v in col.items():
            b -= start
            if b == t:
                diag[b] = v
                continue
            # (PR)[a, t] picks up P[a, b] R[b, t] and (RP)[b, a] picks up
            # R[b, t] P[t, a] for every a; for b != t no two of these
            # writes hit one entry
            for a in range(m):
                op.setdefault(a * m + b, {})[a * m + t] = v
                op.setdefault(t * m + a, {})[b * m + a] = -v
    # the diagonal of R puts R[b, b] - R[a, a] on P[a, b]'s own row
    for a in range(m) if diag else ():
        for b in range(m):
            if x := diag.get(b, 0) - diag.get(a, 0):
                op.setdefault(a * m + b, {})[a * m + b] = x
    return op


def intersect_kernels(operators, dim):
    """Common kernel of a family of operators with dim columns (a Subspace).

    Each operator is a {col: column} dict; operators may be produced
    lazily.  They are processed one at a time, each restricted to the
    kernel found so far, so the elimination shrinks quickly instead of one
    giant stacked system.  Everything runs through nonzeros: the running
    basis is kept as sparse columns, each operator is applied to it by
    accumulating the rows of the product directly, and every product of
    kernel bases keeps the identity on its free rows, so the result is a
    Subspace.from_columns.
    """
    cols = free = None  # None stands for the full space
    for op in operators:
        if cols is not None and not cols:
            break
        if cols is None:
            rows = transpose(op)
        else:
            rows = {}
            for j, vec in enumerate(cols):
                for c, x in vec.items():
                    for r, v in op.get(c, {}).items():
                        row = rows.setdefault(r, {})
                        row[j] = row.get(j, 0) + v * x
        kcols, kfree = _kernel_columns(_int_rows_sparse(rows.values()),
                                       dim if cols is None else len(cols))
        if cols is None:
            cols, free = kcols, kfree
            continue
        cols = [combination(cols, kc) for kc in kcols]
        free = [free[f] for f in kfree]
    if cols is None:
        return full_subspace(dim)
    return Subspace.from_columns(dim, cols, free)
