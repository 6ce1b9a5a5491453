"""Deterministic builders for classical compact algebras and standard pairs.

Structure constants of su(n) and sp(n) are extracted from exact matrix
models: su(n) on anti-Hermitian traceless matrices stored as (real,
imaginary) parts, sp(n) on quaternionic anti-Hermitian matrices stored as
four real components.  Each commutator is solved back into the basis span
over the rationals, so every emitted constant is exact.  so(n), on the real
antisymmetric matrices L_ab = E_ab - E_ba, uses the closed form of its
brackets, which gives the same constants without any elimination.

so(4) is always emitted pre-split into its two commuting su(2) factors
(self-dual and anti-self-dual), because declared factors must be simple; the
fixed change of basis from the standard so(4) coordinates is applied to every
embedding that touches them.

Composite names build direct sums: "torus:3+su:2" is the rank-3 abelian
algebra summed with su(2), with subalgebras and component generators of the
summands embedded blockwise.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .liealg import LieAlgebra, check_dim
from .linalg import F1, dot, feye, fmat, fzeros, solve_many
from .pairs import HomogeneousPair

# su(2) in the cyclic basis: [e1, e2] = 2 e3 and cyclically.
SU2_CONSTANTS = ((0, 1, 2, Fraction(2)), (0, 2, 1, Fraction(-2)),
                 (1, 2, 0, Fraction(2)))

# Standard so(4) coordinates (E_ab - E_ba, pairs lex) to split coordinates
# (X1, X2, X3, Y1, Y2, Y3) where X1 = L01+L23, X2 = L13-L02, X3 = L03+L12
# span the self-dual su(2) and Y1 = L01-L23, Y2 = L12-L03, Y3 = L02+L13 the
# anti-self-dual one; both satisfy the cyclic su(2) relations above.
_H = Fraction(1, 2)
SO4_TO_SPLIT = fmat([
    [_H, 0, 0, 0, 0, _H],
    [0, -_H, 0, 0, _H, 0],
    [0, 0, _H, _H, 0, 0],
    [_H, 0, 0, 0, 0, -_H],
    [0, 0, -_H, _H, 0, 0],
    [0, _H, 0, 0, _H, 0],
])


# ---------------------------------------------------------------------------
# exact matrix models
# ---------------------------------------------------------------------------

def _mul(a, b):
    """Product of matrices over R, C, or H given as component tuples."""
    if len(a) == 1:
        return (dot(a[0], b[0]),)
    if len(a) == 2:
        ar, ai = a
        br, bi = b
        return (dot(ar, br) - dot(ai, bi), dot(ar, bi) + dot(ai, br))
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (dot(a0, b0) - dot(a1, b1) - dot(a2, b2) - dot(a3, b3),
            dot(a0, b1) + dot(a1, b0) + dot(a2, b3) - dot(a3, b2),
            dot(a0, b2) - dot(a1, b3) + dot(a2, b0) + dot(a3, b1),
            dot(a0, b3) + dot(a1, b2) - dot(a2, b1) + dot(a3, b0))


def _flat(a):
    return np.concatenate([m.reshape(-1) for m in a])


def _matrix_constants(mats):
    """Local structure constants (i, j, k, c) of a matrix basis, i < j."""
    dim = len(mats)
    span = np.column_stack([_flat(m) for m in mats])
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    comms = []
    for i, j in pairs:
        ab = _mul(mats[i], mats[j])
        ba = _mul(mats[j], mats[i])
        comms.append(_flat(tuple(x - y for x, y in zip(ab, ba))))
    coords = solve_many(span, np.column_stack(comms))
    if coords is None:
        raise RuntimeError("commutator escapes the span of the matrix basis")
    out = []
    for col, (i, j) in enumerate(pairs):
        for k in range(dim):
            if coords[k, col]:
                out.append((i, j, k, coords[k, col]))
    return tuple(out)


def _lex_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


@lru_cache(maxsize=None)
def _so_constants(n):
    """so(n) on L_ab = E_ab - E_ba (a < b, lex) from the closed form
    [L_ab, L_cd] = δ_bc L_ad - δ_bd L_ac - δ_ac L_bd + δ_ad L_bc,
    with L_ba = -L_ab and L_aa = 0.  For (a, b) before (c, d), a <= c < d,
    so the δ_ad term never appears."""
    index = {p: t for t, p in enumerate(_lex_pairs(n))}

    def add(acc, x, y, sign):
        if x != y:
            t, c = (index[(x, y)], sign) if x < y else (index[(y, x)], -sign)
            acc[t] = acc.get(t, 0) + c

    out = []
    pairs = _lex_pairs(n)
    for i, (a, b) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            c, d = pairs[j]
            acc = {}
            if b == c:
                add(acc, a, d, 1)
            if b == d:
                add(acc, a, c, -1)
            if a == c:
                add(acc, b, d, -1)
            out.extend((i, j, k, Fraction(v))
                       for k, v in sorted(acc.items()) if v)
    return tuple(out)


@lru_cache(maxsize=None)
def _su_constants(n):
    mats = []
    for j in range(n - 1):
        im = fzeros(n, n)
        im[j, j] = F1
        im[j + 1, j + 1] = -F1
        mats.append((fzeros(n, n), im))
    for j, k in _lex_pairs(n):
        re = fzeros(n, n)
        re[j, k] = F1
        re[k, j] = -F1
        mats.append((re, fzeros(n, n)))
        im = fzeros(n, n)
        im[j, k] = F1
        im[k, j] = F1
        mats.append((fzeros(n, n), im))
    return _matrix_constants(mats)


@lru_cache(maxsize=None)
def _sp_constants(n):
    mats = []
    for t in range(n):
        for comp in (1, 2, 3):
            m = [fzeros(n, n) for _ in range(4)]
            m[comp][t, t] = F1
            mats.append(tuple(m))
    for j, k in _lex_pairs(n):
        m = [fzeros(n, n) for _ in range(4)]
        m[0][j, k] = F1
        m[0][k, j] = -F1
        mats.append(tuple(m))
        for comp in (1, 2, 3):
            m = [fzeros(n, n) for _ in range(4)]
            m[comp][j, k] = F1
            m[comp][k, j] = F1
            mats.append(tuple(m))
    return _matrix_constants(mats)


# ---------------------------------------------------------------------------
# algebra builders
# ---------------------------------------------------------------------------

def _build_torus(l):
    if l < 1:
        raise ValueError("torus rank must be >= 1")
    return LieAlgebra.abelian(l)


def _build_su(n):
    if n < 2:
        raise ValueError("su(n) needs n >= 2")
    check_dim(n * n - 1, "su(%d)" % n)
    return LieAlgebra.from_factor_constants(
        0, [("su(%d)" % n, n * n - 1, _su_constants(n))])


def _build_sp(n):
    if n < 1:
        raise ValueError("sp(n) needs n >= 1")
    check_dim(n * (2 * n + 1), "sp(%d)" % n)
    return LieAlgebra.from_factor_constants(
        0, [("sp(%d)" % n, n * (2 * n + 1), _sp_constants(n))])


def _so_algebra(n):
    """(LieAlgebra for so(n), coordinate map standard -> emitted or None)."""
    check_dim(n * (n - 1) // 2, "so(%d)" % n)
    if n == 2:
        return LieAlgebra.abelian(1), None
    if n == 4:
        alg = LieAlgebra.from_factor_constants(
            0, [("su(2)", 3, SU2_CONSTANTS), ("su(2)", 3, SU2_CONSTANTS)])
        return alg, SO4_TO_SPLIT
    alg = LieAlgebra.from_factor_constants(
        0, [("so(%d)" % n, n * (n - 1) // 2, _so_constants(n))])
    return alg, None


def _build_so(n):
    if n < 2:
        raise ValueError("so(n) needs n >= 2")
    return _so_algebra(n)[0]


# ---------------------------------------------------------------------------
# pair builders
# ---------------------------------------------------------------------------

def _so_pair(ambient, sub):
    """so(ambient) / so(sub) with the subalgebra in the upper-left block."""
    alg, coord_map = _so_algebra(ambient)
    index = {p: t for t, p in enumerate(_lex_pairs(ambient))}
    vectors = []
    for a, b in _lex_pairs(sub):
        v = fzeros(alg.n)
        v[index[(a, b)]] = F1
        if coord_map is not None:
            v = coord_map.dot(v)
        vectors.append(v)
    return HomogeneousPair.from_vectors(alg, vectors)


def _build_sphere(n):
    if n < 2:
        raise ValueError("sphere:n needs n >= 2")
    return _so_pair(n + 1, n)


def _build_stiefel(n, k):
    if n < 2:
        raise ValueError("stiefel:(n,k) needs n >= 2")
    if not 1 <= k <= n:
        raise ValueError("stiefel:(n,k) needs 1 <= k <= n")
    return _so_pair(n, n - k)


def _build_flag_su3():
    alg = _build_su(3)
    h0 = fzeros(alg.n)
    h0[0] = F1
    h1 = fzeros(alg.n)
    h1[1] = F1
    return HomogeneousPair.from_vectors(alg, [h0, h1])


def _build_example_4_7():
    """u(2) + R modulo the real rotations of C^2, with both components.

    Coordinates: e0 = the center of u(2), e1 = the extra circle factor,
    (e2, e3, e4) = the cyclic su(2) basis.  The subalgebra is the line
    through e3 (the rotation direction); the component generator is the
    adjoint action of diag(1, -1) in U(2), which fixes e2 and negates e3, e4.
    """
    alg = LieAlgebra.from_factor_constants(2, [("su(2)", 3, SU2_CONSTANTS)])
    h = fzeros(alg.n)
    h[3] = F1
    gamma = feye(alg.n)
    gamma[3, 3] = -F1
    gamma[4, 4] = -F1
    return HomogeneousPair.from_vectors(alg, [h], [gamma])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class CatalogEntry:
    """A named deterministic builder with its parameter contract."""

    def __init__(self, name, params, builder, description):
        self.name = name
        self.params = params        # human-readable parameter syntax
        self.builder = builder
        self.description = description

    def describe(self):
        head = self.name if not self.params else "%s:%s" % (self.name, self.params)
        return "%-14s %s" % (head, self.description)


_ENTRIES = {
    "example_4_7": CatalogEntry(
        "example_4_7", "", _build_example_4_7,
        "(u(2)+R) / so(2) with the adjoint generator of the second component"),
    "flag_su3": CatalogEntry(
        "flag_su3", "", _build_flag_su3,
        "su(3) / maximal torus (the full flag manifold of C^3)"),
    "sphere": CatalogEntry(
        "sphere", "n", _build_sphere,
        "so(n+1) / so(n), n >= 2 (the n-sphere)"),
    "stiefel": CatalogEntry(
        "stiefel", "n:k", _build_stiefel,
        "so(n) / so(n-k), n >= 2, 1 <= k <= n (orthonormal k-frames)"),
    "torus": CatalogEntry(
        "torus", "l", _build_torus,
        "abelian algebra of rank l >= 1"),
    "su": CatalogEntry("su", "n", _build_su, "su(n), n >= 2"),
    "so": CatalogEntry("so", "n", _build_so,
                       "so(n), n >= 2 (n = 4 emitted as su(2)+su(2))"),
    "sp": CatalogEntry("sp", "n", _build_sp, "sp(n), n >= 1 (quaternionic)"),
}


def entries():
    """Stable listing of catalog entries, sorted by name."""
    return [_ENTRIES[k] for k in sorted(_ENTRIES)]


def build(name, *params):
    """Build one catalog object: a HomogeneousPair or a bare LieAlgebra."""
    if name not in _ENTRIES:
        raise ValueError("unknown catalog name: %r" % (name,))
    entry = _ENTRIES[name]
    expected = len(entry.params.split(":")) if entry.params else 0
    if len(params) != expected:
        raise ValueError("%s takes %d parameter(s) (%s), got %d"
                         % (name, expected, entry.params or "none", len(params)))
    return entry.builder(*[int(p) for p in params])


def _as_pair(obj):
    if isinstance(obj, HomogeneousPair):
        return obj
    return HomogeneousPair(obj, fzeros(obj.n, 0))


def _sum_pairs(left, right):
    """Direct sum of two pairs: algebras, subalgebras, generators blockwise."""
    a1, a2 = left.algebra, right.algebra

    def map1(i):
        return i if i < a1.l else i + a2.l

    def map2(i):
        return a1.l + i if i < a2.l else a1.n + i

    factors = [(nm, stop - start) for nm, start, stop in a1.factors]
    factors += [(nm, stop - start) for nm, start, stop in a2.factors]
    table = {}
    for (i, j), terms in a1.table.items():
        table[(map1(i), map1(j))] = [(map1(k), c) for k, c in terms]
    for (i, j), terms in a2.table.items():
        table[(map2(i), map2(j))] = [(map2(k), c) for k, c in terms]
    alg = LieAlgebra(a1.l + a2.l, factors, table)

    vectors = []
    for mapper, src in ((map1, left), (map2, right)):
        hb = src.h_basis
        for col in range(hb.shape[1]):
            v = fzeros(alg.n)
            for i in range(src.algebra.n):
                v[mapper(i)] = hb[i, col]
            vectors.append(v)
    gens = []
    for mapper, src in ((map1, left), (map2, right)):
        for g in src.generators:
            big = feye(alg.n)
            nn = src.algebra.n
            for i in range(nn):
                for j in range(nn):
                    big[mapper(i), mapper(j)] = g[i, j]
            gens.append(big)
    return HomogeneousPair.from_vectors(alg, vectors, gens)


def pair_from_name(name):
    """Build a HomogeneousPair from a (possibly "+"-composed) catalog name.

    Bare algebras become pairs with trivial subalgebra, so every catalog
    name yields a valid input for the Betti computations.
    """
    parts = [p.strip() for p in name.split("+")]
    built = []
    total = 0
    for part in parts:
        if not part:
            raise ValueError("empty component in catalog name %r" % name)
        tokens = part.split(":")
        built.append(_as_pair(build(tokens[0], *tokens[1:])))
        total += built[-1].algebra.n
        check_dim(total, "the sum %r" % name)
    pair = built[0]
    for nxt in built[1:]:
        pair = _sum_pairs(pair, nxt)
    return pair


def emit(name):
    """The pair JSON document for a catalog name (input to every command)."""
    return pair_from_name(name).to_dict()


def factor_from_shorthand(fac):
    """Resolve a {"type", "n"} factor shorthand into (name, dim, constants).

    Only simple compact factors are valid here: so(2) is abelian (declare it
    as center) and so(4) is not simple (use the catalog so:4 builder, which
    splits it).
    """
    kind = fac.get("type")
    n = int(fac.get("n", 0))
    if kind == "su":
        if n < 2:
            raise ValueError("su(n) factor needs n >= 2")
        dim, constants = n * n - 1, _su_constants
    elif kind == "so":
        if n < 3:
            raise ValueError("so(n) factor needs n >= 3 (so(2) is abelian; "
                             "declare it as center)")
        if n == 4:
            raise ValueError("so(4) is not simple; use the so:4 catalog "
                             "builder, which emits the split form")
        dim, constants = n * (n - 1) // 2, _so_constants
    elif kind == "sp":
        if n < 1:
            raise ValueError("sp(n) factor needs n >= 1")
        dim, constants = n * (2 * n + 1), _sp_constants
    else:
        raise ValueError("unknown factor shorthand type: %r" % (kind,))
    name = "%s(%d)" % (kind, n)
    check_dim(dim, name)
    return (fac.get("name", name), dim, constants(n))
