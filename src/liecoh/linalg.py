"""Exact rational linear algebra on sparse columns.

A vector, and a column of a matrix, is a {row: value} dict holding no zero
value; a value is an int when integral, else a Fraction (exact), and every
quotient goes through Fraction.  A matrix is a list of such columns, or a
{col: column} dict that leaves its zero columns out, as SparseMatrix.cols
does.  transpose turns the columns into {row: {col: value}} rows; rank and
kernel_basis read the dicts they are given as rows, and also take plain
sequences.  {(a, b): value} dicts are bilinear forms, not matrices.
Every elimination goes through one exact loop, _insert: a row is cleared
to integers once (lcm of denominators) and held as a {col: int} dict, a
dict of nonzero coprime ints as given, so no function mutates a vector;
while its leading column holds an echelon row, the gcd-scaled two-term
update clears that column, and otherwise the row is stored there.  So no
rationals appear inside the hot loop and the cost tracks the nonzero
structure.  _sparse_echelon inserts a batch of rows, echelon_insert one
row at a time.  Ranks count the pivots (complex_ranks carries them from
one map of a complex to the next), and kernels back-substitute through
the echelon rows (_kernel_columns).  is_spd reads the signs of a Gram
matrix's pivots through the same integer update, on input only; it
computes no rank or solution.

A Subspace holds sparse basis columns only, and its one constructor
takes them: the echelon rows of Subspace.span, the back-substituted
kernel columns, the h columns a HomogeneousPair has checked independent.
Equality works on them, and kernel_in cuts every subspace the package
cuts: the vectors a family of maps kills, found in the subspace's own
coordinates.  Coordinates in independent columns are unique:
coordinates reads them through the Subspace's solver, built once (on a
kernel basis, its free rows), and checks them by mapping them back.

Turns grade wedges.  half_turn_signs tests that exp(pi A) is a sign
matrix and quarter_turn that exp((pi/2) A) is a signed permutation, read
off the nonzeros of a sum of 2 x 2 rotation blocks or interpolated on the
eigenvalues 0, +-i, +-2i.  graded_monomials lists the wedge monomials, as
bitmasks, that a set of sign matrices all fix, doubling over the kernel
of their masks' reduced echelon over GF(2) (xor_echelon); invariant_forms
grades symmetric monomials by it.  signed_orbits walks the orbits of a
group of signed permutations on those monomials, each turn read on a
monomial by two table lookups (_turn_tables), and keeps the orbits whose
stabiliser acts trivially, whose sums span the group's invariants;
on_orbits and summed_on_orbits read a column on their averages.

Ordering conventions used throughout the package: polynomial monomials are
sorted index tuples (itertools.combinations_with_replacement order), exterior
tuples strictly increasing ones (itertools.combinations order).
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm

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


def exact_reader():
    """exact for one document reader: each distinct string is read once,
    through a memo of its own; any other value (1, 1.0, True) goes to
    exact each time."""
    memo = {}

    def read(x):
        if type(x) is str and x not in memo:
            memo[x] = exact(x)
        return memo[x] if type(x) is str else exact(x)
    return read


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
    cleared to coprime integers as one {col: int} dict ({} when zero); a
    dict of nonzero coprime ints is that dict itself."""
    if isinstance(row, dict) and all(type(x) is int and x
                                     for x in row.values()):
        ints = row
    else:
        ints = {j: x for j, x in _indexed(row) if x}
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
    return _insert(echelon, _clear_row(v)) if v else None


def rank(m, ncols):
    """Exact rank over the rationals of the rows m, each a sparse {col:
    value} dict or a sequence (Fractions or ints), with ncols columns (an
    entry outside them is a ValueError)."""
    _, pivots = _sparse_echelon(_int_rows_sparse(m), ncols)
    return len(pivots)


def complex_ranks(maps):
    """Exact ranks of the consecutive maps d_0, d_1, ... of a complex.

    Each map is (cols, nrows, ncols), cols its {col: column} dict; the rows
    of d_k are the columns of d_{k+1}.  The echelon of d_k's columns spans
    im d_k with distinct leading rows P_k; those vectors and the unit
    vectors off P_k are a triangular basis of the next space, and d_{k+1}
    kills the former, so rank d_{k+1} is the rank of its columns off P_k.
    This is the clearing rule of persistent homology (Chen & Kerber, 2011):
    the elimination sees rank d_k fewer columns of d_{k+1}, most of those
    that would have reduced to zero.  Its precondition d_{k+1} d_k = 0 is
    checked on the columns of d_k off P_{k-1}, which span im d_k as d_k
    kills the echelon of im d_{k-1}; a nonzero composite is a RuntimeError.
    """
    ranks, cleared, ranked = [], set(), []
    for k, (cols, nrows, ncols) in enumerate(maps):
        if any(combination(cols, v) for v in ranked):
            raise RuntimeError("differential composite in degree %d is "
                               "nonzero; the maps do not form a complex" % k)
        ranked = _int_rows_sparse(cols.get(j, {}) for j in range(ncols)
                                  if j not in cleared)
        _, pivots = _sparse_echelon(ranked, nrows)
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
    return Subspace(ncols, cols, free)


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
    consecutive minors.  The rows below k then hold a symmetric matrix,
    each row scaled by a positive factor, so the rows that hold column k
    are the columns of row k past k: only those are eliminated.
    """
    n = len(gram)
    if any(len(row) != n for row in gram):
        return False
    rows = [{j: v for j, x in enumerate(row)
             if (v := x if type(x) is int else exact(x))} for row in gram]
    den = lcm(*(x.denominator for row in rows for x in row.values()
                if type(x) is not int))
    if den > 1:
        rows = [{j: int(x * den) for j, x in row.items()} for row in rows]
    if any(rows[j].get(i) != x for i, row in enumerate(rows)
           for j, x in row.items()):
        return False
    for k, prow in enumerate(rows):
        if prow.get(k, 0) <= 0:
            return False
        for i in prow:
            if i > k:
                rows[i] = _eliminate(rows[i], prow, k)
    return True


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A linear subspace of Q^n, held as sparse basis columns.

    columns holds one {row: value} dict per basis vector (Fraction or int
    values, no zeros), independent: the constructor holds them unchecked.
    free[j], when given, is a row on which column j is 1 and every other
    column is 0, as in a kernel basis; else free is None.  Two subspaces
    are equal iff their ambient and own dimensions agree and their columns
    together add no rank.
    """

    def __init__(self, ambient_dim, columns, free=None):
        self.ambient_dim = ambient_dim
        self.columns = columns
        self.free = free

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
        return cls(ambient_dim, rows)

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


def full_subspace(n):
    return Subspace(n, [{i: 1} for i in range(n)], list(range(n)))


def combination(columns, coeffs):
    """sum_j coeffs[j] * columns[j] for a matrix given by its columns.

    coeffs is a {j: value} dict; the result is a {row: value} dict without
    zeros.
    """
    acc = {}
    # a dict leaves its zero columns out: get reads them as None
    get = columns.get if isinstance(columns, dict) else columns.__getitem__
    for j, a in coeffs.items():
        if col := get(j):
            for r, x in col.items():
                acc[r] = acc.get(r, 0) + a * x
    return nonzero(acc)


def transpose(columns):
    """The rows {row: {col: value}} of a matrix given by its columns."""
    rows = {}
    for j, col in _indexed(columns):
        for r, x in col.items():
            rows.setdefault(r, {})[j] = x
    return rows


def trace_gram(mats):
    """Rows of the Gram matrix trace(A_i A_j) = sum A_i[a, b] A_j[b, a] of
    square matrices A_i given by their columns.  One pass files every
    entry by its position (a, b) as (i, A_i[a, b]); then an entry of A_i
    at (a, b) meets only the entries filed at (b, a)."""
    at, K = {}, [[0] * len(mats) for _ in mats]
    for i, mat in enumerate(mats):
        for b, col in _indexed(mat):
            for a, x in col.items():
                at.setdefault((a, b), []).append((i, x))
    for (a, b), entries in at.items():
        for j, d in at.get((b, a), ()):
            for i, c in entries:
                K[i][j] += c * d
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


def intersect_kernels(operators, dim):
    """Common kernel of a family of operators with dim columns (a Subspace).

    Each operator is a {col: column} dict whose row keys may be any
    hashable; operators may be produced lazily, and none is drawn once the
    kernel is zero.  They are processed one at a time, each restricted to the
    kernel found so far, so the elimination shrinks quickly instead of one
    giant stacked system.  Everything runs through nonzeros: the running
    basis is kept as sparse columns, each operator is applied to it by
    accumulating the rows of the product directly, and every product of
    kernel bases keeps the identity on its free rows, which the result
    holds as its free rows.
    """
    cols = free = None  # None stands for the full space
    for op in operators:
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
        else:
            cols = [combination(cols, kc) for kc in kcols]
            free = [free[f] for f in kfree]
        if not cols:        # no further operator is built
            break
    if cols is None:
        return full_subspace(dim)
    return Subspace(dim, cols, free)


def kernel_in(space, maps):
    """The vectors of a Subspace that every map sends to zero, each map a
    {col: column} matrix on its ambient space: B c over the common kernel
    of the M B (intersect_kernels), whose columns are independent as B's
    are; space itself when every map vanishes on it."""
    ker = intersect_kernels((sparse_product(m, space.columns) for m in maps),
                            space.dim)
    if ker.dim == space.dim:
        return space
    return Subspace(space.ambient_dim, [
        combination(space.columns, c) for c in ker.columns])


def half_turn_signs(columns, m):
    """The diagonal of exp(pi A) when it is a sign matrix other than the
    identity, else None, for the m x m matrix A given by its columns (a
    list, or a {col: column} dict without zero columns).

    With e_j in ker(A^2 + 1), exp(pi A) e_j = -e_j, and with e_j in
    ker A(A^2 + 4), exp(pi A) e_j = e_j.  These kernels split the space
    exactly when A(A^2 + 1)(A^2 + 4) = 0, so the test is exactly that and
    a diagonal exp(pi A).  It first reads the diagonal of A^2: with no
    entry -1 no A^2 e_j is -e_j, and exp(pi A) negates nothing.  Then it
    reads A^2 e_j and, unless that is -e_j, A^3 e_j = -4 A e_j, for each
    e_j in turn but those with A e_j = 0, which are in ker A.
    """
    cols = columns if isinstance(columns, dict) else dict(enumerate(columns))
    for j, col in cols.items():     # some (A^2)_jj = -1, or no sign is -1
        diagonal = 0
        for k, x in col.items():
            if j in (ck := cols.get(k, ())):
                diagonal += x * ck[j]
        if diagonal == -1:
            break
    else:
        return None
    signs = []
    for j in range(m):      # the first e_j in neither kernel rejects A
        if not (a1 := cols.get(j)):
            signs.append(1)
        elif (a2 := combination(cols, a1)) == {j: -1}:
            signs.append(-1)
        elif combination(cols, a2) == {r: -4 * x for r, x in a1.items()}:
            signs.append(1)
        else:
            return None
    return signs if -1 in signs else None


def xor_echelon(masks):
    """A reduced echelon over GF(2) of int bitmasks, as {highest bit:
    row}: each row's highest bit is set in that row alone, and the rows
    span the masks (as many rows as their rank)."""
    rows = {}
    for s in masks:
        for p, row in rows.items():
            if s & p:
                s ^= row
        if s:
            p = 1 << (s.bit_length() - 1)
            for t, row in rows.items():
                if row & p:
                    rows[t] = row ^ s
            rows[p] = s
    return rows


def graded_monomials(q, masks, top):
    """Per degree 0..top, the J on q bits with J & S of even popcount for
    every mask S, in the order of combinations(range(q), k), which keeps
    the eliminations sparse.

    With the masks in a reduced echelon (xor_echelon), the J form the
    span of one vector v_f per bit f that leads no row: f and the leading
    bits of the rows that hold f.  f is v_f's lowest bit and set in no
    other v, so a sum of t of them has at least t bits, and two sums
    first differ at the lowest f in one of them only.  Doubling over the
    v_f from the highest f down, the sums holding v_f before the others,
    then lists them in combinations order, degree by degree.
    """
    rows = xor_echelon(masks).items()
    free = (1 << q) - 1 & ~sum(p for p, _ in rows)
    mons = [0]
    for f in reversed(range(q)):
        if free >> f & 1:
            v = 1 << f | sum(p for p, row in rows if row >> f & 1)
            mons = [m ^ v for m in mons if (m & free).bit_count() < top] + mons
    levels = [[] for _ in range(top + 1)]
    for mon in mons:
        if (k := mon.bit_count()) <= top:
            levels[k].append(mon)
    return levels


def quarter_turn(columns, m):
    """exp(pi/2 A) as a signed permutation [(k, s)], exp(pi/2 A) e_j =
    s e_k, when it is one other than the identity, else None, for the
    m x m matrix A given by its columns (as in half_turn_signs).

    Where A is a sum of 2 x 2 rotation blocks, A e_a = t e_b and
    A e_b = x e_a with tx = -1 (weight 1) or -4 (weight 2), beside zero
    columns, it is read off those nonzeros: t e_b, a signed unit when
    t = +-1, for weight 1 and -e_a for weight 2.  Otherwise it is the
    interpolation 1 + (4/3)A + (7/6)A^2 + (1/3)A^3 + (1/6)A^4, which is
    exp(pi/2 lambda) on the eigenvalues 0, +-i, +-2i, under the test
    A(A^2 + 1)(A^2 + 4) = 0, both read on A^0 e_j .. A^5 e_j; it is A e_j
    for e_j in ker(A^2 + 1) and e_j + A^2 e_j / 2 for e_j in
    ker A(A^2 + 4), read off A^2 e_j and A^3 e_j as in half_turn_signs.
    """
    cols = columns if isinstance(columns, dict) else dict(enumerate(columns))
    turn = [(j, 1) for j in range(m)]
    for a, col in cols.items():
        if col:
            (b, t), = col.items() if len(col) == 1 else ((a, 0),)
            back = cols.get(b, {})
            w = t * back.get(a, 0) if len(back) == 1 else 0
            if w == -4:
                turn[a] = (a, -1)
            elif w == -1 and t in (1, -1):
                turn[a] = (b, t)
            else:
                break
    else:
        return turn if turn != [(j, 1) for j in range(m)] else None
    turn = []
    for j in range(m):      # 6 exp(pi/2 A) e_j, the shorter where it can
        if not (a1 := cols.get(j)):
            image = {j: 6}
        elif (a2 := combination(cols, a1)) == {j: -1}:
            image = {r: 6 * x for r, x in a1.items()}
        elif (a3 := combination(cols, a2)) == {
                r: -4 * x for r, x in a1.items()}:
            image = combination([{j: 1}, a2], {0: 6, 1: 3})
        else:
            powers = [{j: 1}, a1, a2, a3, a4 := combination(cols, a3),
                      combination(cols, a4)]
            if combination(powers, {1: 4, 3: 5, 5: 1}):
                return None
            image = combination(powers, {0: 6, 1: 8, 2: 7, 3: 2, 4: 1})
        if len(image) != 1 or abs(x := next(iter(image.values()))) != 6:
            return None
        turn.append((next(iter(image)), x // 6))
    return turn if turn != [(j, 1) for j in range(m)] else None


def _turn_tables(turn, w):
    """What the signed permutation turn makes of a monomial m, as two
    tables, one for bits 0..w-1 of m and one for the rest: an entry is
    the XOR of P_i over the set bits i of its index, with P_i = 1 << pi(i)
    | (D_i | [turn negates F_i] << i) << q and D_i the bits j > i with
    pi(j) < pi(i).  For P the XOR of m's two entries, F_m goes to
    (-1)^odd F_image, image = P & (2^q - 1) and odd the parity of
    m & (P >> q): the negations and the inversions of the turn on m."""
    q, at, below = len(turn), [0] * len(turn), [0]
    for j, (k, _) in enumerate(turn):
        at[k] = j
    for j in at:
        below.append(below[-1] | 1 << j)
    tables = []
    for bits in (range(w), range(w, q)):
        table = [0]
        for i in bits:
            k, s = turn[i]
            p = 1 << k | (below[k] & -(2 << i) | (s < 0) << i) << q
            table += [x ^ p for x in table]
        tables.append(table)
    return tables


def signed_orbits(q, turns, top):
    """Per degree 0..top, the orbits on the wedge monomials of q bits of
    the group the signed permutations turns generate: (index, reps,
    members).

    The diagonal turns, and the squares of the others where those are
    diagonal, grade first (graded_monomials); the other turns walk an
    orbit on the graded monomials (_turn_tables).  It is bad, its walk
    stopped, when the walk reaches a monomial off them (a sign matrix of
    the group negates it), one of a bad orbit, or one monomial with both
    signs: then an element fixing a monomial negates it.  Every other
    orbit is good, and its orbit sum, the sum of (-1)^odd F_m over its
    members, is invariant.  reps[p] is the monomial of good orbit p with
    odd = 0 and members[p] its (m, odd); index maps a member of a good
    orbit to 2p + odd and any other graded monomial to -1.
    """
    masks, moving = [], []
    for turn in turns:
        if any(k != j for j, (k, _) in enumerate(turn)):
            moving.append(turn)
            if any(turn[k][0] != j for j, (k, _) in enumerate(turn)):
                continue
            turn = [(j, s * turn[k][1]) for j, (k, s) in enumerate(turn)]
        masks.append(sum(1 << j for j, (_, s) in enumerate(turn) if s < 0))
    w, full, out, acts = (q + 1) // 2, (1 << q) - 1, [], None
    low = (1 << w) - 1
    for level in graded_monomials(q, masks, top):
        index, reps, members = dict.fromkeys(level, -2), [], []
        for start in level:
            if index[start] != -2:
                continue
            if acts is None and start:      # every turn fixes F_0 = 1
                acts = [_turn_tables(turn, w) for turn in moving]
            key = 2 * len(reps)
            index[start], orbit = key, [(start, 0)]
            for mon, odd in orbit:
                for lows, highs in acts if start else ():
                    p = lows[mon & low] ^ highs[mon >> w]
                    flip = key + ((odd + (mon & p >> q).bit_count()) & 1)
                    seen = index.get(image := p & full)
                    if seen == -2:
                        index[image] = flip
                        orbit.append((image, flip & 1))
                    elif seen != flip:
                        break
                else:
                    continue
                index.update((m, -1) for m, _ in orbit)
                break
            else:
                reps.append(start)
                members.append(orbit)
        out.append((index, reps, members))
    return out


def on_orbits(col, index):
    """E applied to a {monomial: value} column, on the orbit sums of index
    (signed_orbits), E the average over the group: a monomial adds its
    signed value at its orbit, one of a bad orbit nothing, and one off the
    graded monomials is the row ~m."""
    acc = {}
    for mon, v in col.items():
        if (at := index.get(mon)) is None:
            acc[~mon] = v
        elif at >= 0:
            acc[at >> 1] = acc.get(at >> 1, 0) + (-v if at & 1 else v)
    return nonzero(acc)


def summed_on_orbits(members, column):
    """{p: A Q_p} for the orbits members[p] of signed_orbits, Q_p = E F_r
    the average of F_r over the group and A F_m = column(m): the sum of
    (-1)^odd column(m) over the members, over the orbit's size, all times
    the lcm of the sizes (a scale that keeps kernels) and on monomials."""
    size, out = lcm(*map(len, members)), {}
    for p, orbit in enumerate(members):
        acc = {}
        for mon, odd in orbit:
            for r, v in column(mon).items():
                acc[r] = acc.get(r, 0) + (-v if odd else v)
        if acc := {r: v * (size // len(orbit)) for r, v in acc.items() if v}:
            out[p] = acc
    return out
