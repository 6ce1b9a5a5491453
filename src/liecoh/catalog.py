"""Deterministic builders for classical compact algebras and standard pairs.

Structure constants of so(n), su(n) and sp(n) come from exact matrix
models, each basis matrix given by its one or two nonzero matrix units:
so(n) on the real antisymmetric matrices L_ab = E_ab - E_ba, su(n) on
anti-Hermitian traceless matrices stored as (real, imaginary) parts, sp(n)
on quaternionic anti-Hermitian matrices stored as four real components.
Each commutator is a sum of products of units, and its coordinates are
read off the basis's pivots: every basis matrix holds 1 at its least unit
and no two start at the same unit, so the basis is unit-triangular and
every emitted constant is exact.

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
from itertools import combinations

from .liealg import LieAlgebra, check_dim, int_field, string_field
from .pairs import HomogeneousPair

# su(2) in the cyclic basis: [e1, e2] = 2 e3 and cyclically.
SU2_CONSTANTS = ((0, 1, 2, Fraction(2)), (0, 2, 1, Fraction(-2)),
                 (1, 2, 0, Fraction(2)))

# Standard so(4) coordinates (E_ab - E_ba, pairs lex) to split coordinates
# (X1, X2, X3, Y1, Y2, Y3), as the map's columns: column t holds the t-th
# standard basis vector in the split basis, where X1 = L01+L23, X2 =
# L13-L02, X3 = L03+L12 span the self-dual su(2) and Y1 = L01-L23, Y2 =
# L12-L03, Y3 = L02+L13 the anti-self-dual one; both satisfy the cyclic
# su(2) relations above.
_H = Fraction(1, 2)
SO4_TO_SPLIT = [{0: _H, 3: _H}, {1: -_H, 5: _H}, {2: _H, 4: -_H},
                {2: _H, 4: _H}, {1: _H, 5: _H}, {0: _H, 3: -_H}]


# ---------------------------------------------------------------------------
# exact matrix models
# ---------------------------------------------------------------------------

def _component_product(a, b):
    """(sign, c) with u_a u_b = sign u_c for the units 1, i, j, k of H.

    Components 0 and 1 alone multiply as R and C.
    """
    if a == 0 or b == 0:
        return 1, a + b
    if a == b:
        return -1, 0
    return (1 if (b - a) % 3 == 1 else -1), 6 - a - b


def _commutator(x, y):
    """xy - yx for matrices given as {(component, row, col): value}."""
    out = {}
    for left, right, sign in ((x, y, 1), (y, x, -1)):
        for (a, r, s), u in left.items():
            for (b, s2, t), v in right.items():
                if s == s2:
                    unit_sign, c = _component_product(a, b)
                    key = (c, r, t)
                    out[key] = out.get(key, 0) + sign * unit_sign * u * v
    return {key: v for key, v in out.items() if v}


def _matrix_constants(units):
    """Local structure constants (i, j, k, c), i < j, of a matrix basis.

    units[t] is basis matrix t as {(component, row, col): int}.  Its least
    key is its pivot, holding 1, and no two basis matrices share a pivot.
    A commutator is reduced from its least key up: the key must be the
    pivot of some basis matrix t, whose coefficient is the entry there.
    """
    pivot = {min(x): t for t, x in enumerate(units)}
    out = []
    for i, j in combinations(range(len(units)), 2):
        m = _commutator(units[i], units[j])
        coef = {}
        while m:
            lead = min(m)
            if lead not in pivot:
                raise RuntimeError("commutator escapes the span of the "
                                   "matrix basis")
            t = pivot[lead]
            c = coef[t] = m[lead]
            for key, v in units[t].items():
                m[key] = m.get(key, 0) - c * v
                if not m[key]:
                    del m[key]
        out.extend((i, j, k, Fraction(coef[k])) for k in sorted(coef))
    return tuple(out)


def _lex_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _antisymmetric(comp, j, k):
    return {(comp, j, k): 1, (comp, k, j): -1}


def _symmetric(comp, j, k):
    return {(comp, j, k): 1, (comp, k, j): 1}


@lru_cache(maxsize=None)
def _so_constants(n):
    """so(n) on L_ab = E_ab - E_ba, a < b in lex order."""
    return _matrix_constants([_antisymmetric(0, a, b)
                              for a, b in _lex_pairs(n)])


@lru_cache(maxsize=None)
def _su_constants(n):
    """su(n): i(E_jj - E_j+1,j+1), then per j < k the real part E_jk - E_kj
    and the imaginary part i(E_jk + E_kj)."""
    units = [{(1, j, j): 1, (1, j + 1, j + 1): -1} for j in range(n - 1)]
    for j, k in _lex_pairs(n):
        units += [_antisymmetric(0, j, k), _symmetric(1, j, k)]
    return _matrix_constants(units)


@lru_cache(maxsize=None)
def _sp_constants(n):
    """sp(n): i E_tt, j E_tt, k E_tt per t, then per j < k the real part
    E_jk - E_kj and u(E_jk + E_kj) for u = i, j, k."""
    units = [{(comp, t, t): 1} for t in range(n) for comp in (1, 2, 3)]
    for j, k in _lex_pairs(n):
        units.append(_antisymmetric(0, j, k))
        units += [_symmetric(comp, j, k) for comp in (1, 2, 3)]
    return _matrix_constants(units)


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
    columns = []
    for a, b in _lex_pairs(sub):
        t = index[(a, b)]
        columns.append({t: 1} if coord_map is None else coord_map[t])
    return HomogeneousPair(alg, columns)


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
    return HomogeneousPair(alg, [{0: 1}, {1: 1}])


def _build_example_4_7():
    """u(2) + R modulo the real rotations of C^2, with both components.

    Coordinates: e0 = the center of u(2), e1 = the extra circle factor,
    (e2, e3, e4) = the cyclic su(2) basis.  The subalgebra is the line
    through e3 (the rotation direction); the component generator is the
    adjoint action of diag(1, -1) in U(2), which fixes e2 and negates e3, e4.
    """
    alg = LieAlgebra.from_factor_constants(2, [("su(2)", 3, SU2_CONSTANTS)])
    gamma = [{t: -1 if t in (3, 4) else 1} for t in range(alg.n)]
    return HomogeneousPair(alg, [{3: 1}], [gamma])


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
    return entry.builder(*[int_field(p, "%s parameter %s" % (name, key))
                           for key, p in zip(entry.params.split(":"), params)])


def _as_pair(obj):
    if isinstance(obj, HomogeneousPair):
        return obj
    return HomogeneousPair(obj)


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

    h, gens = [], []
    for mapper, src in ((map1, left), (map2, right)):
        h += [{mapper(i): x for i, x in col.items()} for col in src.h.columns]
        for cols in src.generator_columns:
            big = [{t: 1} for t in range(alg.n)]
            for j, col in enumerate(cols):
                big[mapper(j)] = {mapper(i): x for i, x in col.items()}
            gens.append(big)
    return HomogeneousPair(alg, h, gens)


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
    n = int_field(fac.get("n", 0), "n")
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
    return (string_field(fac.get("name", name), "factor name"), dim,
            constants(n))
