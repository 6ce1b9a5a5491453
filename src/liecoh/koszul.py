"""Low-degree Koszul complex oracle for the Betti numbers of G/H.

The complex is S(h*)^H ⊗ ∧P, where P is the graded space of primitive
elements of g: P¹ is the annihilator of [g,g] in g* and P³ is spanned by the
r independent 3-forms ρ(B̃ᵢ) with ρ(η)(x,y,z) = η([x,y],z).  ∧P is free on
these generators, so each graded piece has a formal basis of products of
symbols; only the ingredient maps (restriction to h, the ∨-product, and
B̃ᵢ|_{h×h}) involve actual linear algebra.  Symmetric generators carry
degree 2, so S²(h*)^H sits in degree 4.

Degrees 1-5 and the differentials:

    𝒞¹ = 1⊗P¹
    𝒞² = (h*)^H⊗1 ⊕ 1⊗∧²P¹
    𝒞³ = (h*)^H⊗P¹ ⊕ 1⊗P³ ⊕ 1⊗∧³P¹
    𝒞⁴ = S²(h*)^H⊗1 ⊕ (h*)^H⊗∧²P¹ ⊕ 1⊗P³∧P¹ ⊕ 1⊗∧⁴P¹
    𝒞⁵ ⊇ S²(h*)^H⊗P¹ ⊕ (h*)^H⊗P³ ⊕ (h*)^H⊗∧³P¹

    ∇¹(1⊗f)          = f|ₕ⊗1
    ∇²(ψ⊗1)          = 0
    ∇²(1⊗f₁∧f₂)      = f₁|ₕ⊗f₂ − f₂|ₕ⊗f₁
    ∇³(ψ⊗f)          = ψ∨f|ₕ⊗1
    ∇³(1⊗ρ(B̃ᵢ))      = B̃ᵢ|_{h×h}⊗1
    ∇³(1⊗f₁∧f₂∧f₃)   = Σₜ (−1)^{t+1} fₜ|ₕ ⊗ (f's without fₜ)
    ∇⁴(S²(h*)^H⊗1)   = 0
    ∇⁴(ψ⊗f₁∧f₂)      = ψ∨f₁|ₕ⊗f₂ − ψ∨f₂|ₕ⊗f₁
    ∇⁴(1⊗ρ(B̃ᵢ)∧f)   = B̃ᵢ|_{h×h}⊗f − f|ₕ⊗ρ(B̃ᵢ)
    ∇⁴(1⊗f₁∧f₂∧f₃∧f₄) = Σₜ (−1)^{t+1} fₜ|ₕ ⊗ (f's without fₜ)

Cohomology: b₁ = dim ker ∇¹ and bₖ = dim ker ∇ᵏ − rank ∇ᵏ⁻¹.

Everything runs on sparse data: covectors on h are {j: value} dicts in the
coordinates of h's columns, symmetric forms are {(i, j): value} dicts, and
each ∇ᵏ is a linalg.SparseMatrix.  ∇∘∇ = 0 is checked on those columns
before the ranks are taken as one complex (linalg.complex_ranks).
"""

from itertools import combinations

from .betti import BettiReport
from .invariant_forms import (action_coordinates, ad_coordinates,
                              invariant_sym_forms, restrict_form, vee)
from .linalg import (SparseMatrix, complex_ranks, coordinates,
                     intersect_kernels, kernel_basis, rank, sparse_product,
                     transpose)
from .pairs import validate_pair


class PrimitiveBasis:
    """P¹ as concrete covectors; P³ as symbols backed by the forms ρ(B̃ᵢ)."""

    def __init__(self, p1_basis, rho_forms):
        self.p1_basis = p1_basis      # list of sparse covectors {i: value}
        self.rho_forms = rho_forms    # list of {(a,b,c): value}, a<b<c

    @property
    def p1_dim(self):
        return len(self.p1_basis)

    @property
    def p3_dim(self):
        return len(self.rho_forms)


class ChainComplexSlice:
    """One degree of the complex: named summand dimensions + differential,
    a SparseMatrix holding every column (zero ones as empty lists)."""

    def __init__(self, degree, summands, differential=None):
        self.degree = degree
        self.summands = list(summands)
        self.total_dim = sum(d for _, d in summands)
        self.differential = differential

    def summand_dims(self):
        return {name: d for name, d in self.summands}


def cartan_rho(alg, eta):
    """The alternating 3-form ρ(η)(x,y,z) = η([x,y],z) on basis triples.

    eta is a bilinear form given by its nonzeros {(row, col): value}.
    Returns {(a,b,c): value} over strictly increasing triples.  Raises
    ValueError("eta not invariant") if the result fails to alternate, which
    happens exactly when eta is not ad-invariant.
    """
    rows = {}
    for (t, c), v in eta.items():
        rows.setdefault(t, []).append((c, v))
    # every nonzero value, over ordered (a, b) with a != b: each structure
    # constant [e_a, e_b] ∋ c_t e_t meets only row t of eta
    rho = {}
    for (a, b), terms in alg.table.items():
        for t, ct in terms:
            for c, v in rows.get(t, ()):
                rho[(a, b, c)] = rho.get((a, b, c), 0) + ct * v
    rho = {k: v for k, v in rho.items() if v}
    for (a, b, c), v in list(rho.items()):
        rho[(b, a, c)] = -v
    # antisymmetric in (x,y) by construction; alternating iff additionally
    # antisymmetric under swapping the last two arguments
    for (a, b, c), v in rho.items():
        if rho.get((a, c, b), 0) != -v:
            raise ValueError("eta not invariant")
    return {k: v for k, v in rho.items() if k[0] < k[1] < k[2]}


def primitive_basis(pair):
    """P¹ (annihilator of [g,g]) and the r forms ρ(B̃ᵢ), independence-checked."""
    alg = pair.algebra
    p1 = kernel_basis(alg.derived_subspace().columns, alg.n).columns
    if len(p1) != alg.l:
        raise RuntimeError("dim P¹ != dim z(g); the algebra is not reductive "
                           "as declared")
    rho_forms = [cartan_rho(alg, alg.btilde(i)) for i in range(alg.r)]
    tindex = {t: i for i, t in enumerate(combinations(range(alg.n), 3))}
    rows = [{tindex[t]: v for t, v in form.items()} for form in rho_forms]
    if rank(rows, len(tindex)) != alg.r:
        raise RuntimeError("the forms ρ(B̃ᵢ) are dependent; the declared "
                           "factors cannot all be simple")
    return PrimitiveBasis(p1, rho_forms)


def _dual(columns, shift=0):
    """Sparse columns of Cᵀ − shift·1 for a square C given by its columns."""
    rows = transpose(columns)
    for s in range(len(columns)):
        row = rows.setdefault(s, {})
        row[s] = row.get(s, 0) - shift
    return {s: [(j, v) for j, v in row.items() if v] for s, row in rows.items()}


def _inside(solve, vectors):
    """solve(vectors), coordinates in an invariant space; an escaping vector
    is an internal inconsistency."""
    try:
        return solve(vectors)
    except ValueError:
        raise RuntimeError("a restriction escapes the H-invariants; "
                           "invariance computation is inconsistent") from None


def _place(d, offset, col, coords, sign=1):
    """Add sign * coords (a {row: value} dict) at rows offset + row of
    column col of a map under assembly, {col: {row: value}}."""
    c = d.setdefault(col, {})
    for row, v in coords.items():
        c[offset + row] = c.get(offset + row, 0) + sign * v


def build_complex(pair, validate=True):
    """Degrees 1-5 of the complex with the differentials ∇¹..∇⁴."""
    if validate:
        validate_pair(pair).ensure()
    alg = pair.algebra
    h = pair.h
    prim = primitive_basis(pair)
    # (h*)^H: covectors c on h, c_j = c(h_j), killed by the coadjoint action
    # of h (Rᵀc = 0 with R = ad x|ₕ) and fixed by the generators (Cᵀc = c
    # with C = γ|ₕ); S²(h*)^H as invariant symmetric forms on h
    inv = intersect_kernels(
        [_dual(ad_coordinates(alg, h, x)) for x in h.columns]
        + [_dual(action_coordinates(gcols, h), 1)
           for gcols in pair.generator_columns], h.dim)
    psi = inv.columns
    s2 = invariant_sym_forms(pair, h)
    restr = [{j: v for j, c in enumerate(h.columns)
              if (v := sum(f.get(i, 0) * x for i, x in c.items()))}
             for f in prim.p1_basis]
    l = prim.p1_dim
    r = prim.p3_dim
    p = len(psi)
    q2 = s2.dim
    w = [list(combinations(range(l), k)) for k in range(5)]

    dims = {1: [("1⊗P¹", l)],
            2: [("(h*)^H⊗1", p), ("1⊗∧²P¹", len(w[2]))],
            3: [("(h*)^H⊗P¹", p * l), ("1⊗P³", r), ("1⊗∧³P¹", len(w[3]))],
            4: [("S²(h*)^H⊗1", q2), ("(h*)^H⊗∧²P¹", p * len(w[2])),
                ("1⊗P³∧P¹", r * l), ("1⊗∧⁴P¹", len(w[4]))],
            5: [("S²(h*)^H⊗P¹", q2 * l), ("(h*)^H⊗P³", p * r),
                ("(h*)^H⊗∧³P¹", p * len(w[3]))]}
    total = {d: sum(x for _, x in dims[d]) for d in dims}

    psi_of_restr = _inside(lambda v: coordinates(inv, v), restr)
    s2_all = _inside(s2.coordinates,
                     [restrict_form(alg.btilde(i), h.columns) for i in range(r)]
                     + [vee(psi[k], restr[j])
                        for k in range(p) for j in range(l)])
    s2_of_btilde = s2_all[:r]
    s2_of_vee = [s2_all[r + k * l:r + (k + 1) * l] for k in range(p)]

    def wedge_block(d, k, col_off, row_off):
        """1⊗f_{i₀}∧…∧f_{i_{k−1}} ↦ Σₜ (−1)^t f_{iₜ}|ₕ ⊗ (the others), into
        (h*)^H⊗∧^{k−1}P¹ at rows row_off + ψ-index·C(l, k−1) + position."""
        below = {word: i for i, word in enumerate(w[k - 1])}
        for col0, word in enumerate(w[k]):
            for t in range(k):
                pos = below[word[:t] + word[t + 1:]]
                _place(d, row_off, col_off + col0,
                       {j * len(below) + pos: coef
                        for j, coef in psi_of_restr[word[t]].items()},
                       (-1) ** t)

    # ∇¹: column 1⊗f_j ↦ f_j|ₕ⊗1; ∇²: ψ⊗1 ↦ 0, 1⊗f_a∧f_b as above
    d1 = {}
    for j in range(l):
        _place(d1, 0, j, psi_of_restr[j])
    d2 = {}
    wedge_block(d2, 2, p, 0)

    # ∇³ blocks; 𝒞⁴ row offsets
    off_pw2 = q2
    off_p3w1 = off_pw2 + p * len(w[2])
    off_w4 = off_p3w1 + r * l
    d3 = {}
    for k in range(p):
        for j in range(l):
            _place(d3, 0, k * l + j, s2_of_vee[k][j])
    for i in range(r):
        _place(d3, 0, p * l + i, s2_of_btilde[i])
    wedge_block(d3, 3, p * l + r, off_pw2)

    # ∇⁴ blocks; 𝒞⁵ row offsets (S²(h*)^H⊗P¹ at 0)
    off5_pp3, off5_pw3 = q2 * l, q2 * l + p * r
    d4 = {}
    for k in range(p):
        for col0, (a, b) in enumerate(w[2]):
            col = off_pw2 + k * len(w[2]) + col0
            for x, y, sign in ((a, b, 1), (b, a, -1)):
                _place(d4, 0, col, {t * l + y: v
                                    for t, v in s2_of_vee[k][x].items()}, sign)
    for i in range(r):
        for a in range(l):
            col = off_p3w1 + i * l + a
            _place(d4, 0, col, {t * l + a: v
                                for t, v in s2_of_btilde[i].items()})
            _place(d4, off5_pp3, col,
                   {k * r + i: v for k, v in psi_of_restr[a].items()}, -1)
    wedge_block(d4, 4, off_w4, off5_pw3)

    d1, d2, d3, d4 = (
        SparseMatrix({j: [(row, v) for row, v in d.get(j, {}).items() if v]
                      for j in range(total[k])}, total[k + 1], total[k])
        for k, d in enumerate((d1, d2, d3, d4), 1))
    for name, upper, lower in (("∇²∘∇¹", d2, d1), ("∇³∘∇²", d3, d2),
                               ("∇⁴∘∇³", d4, d3)):
        if sparse_product(upper.cols, lower.cols):
            raise RuntimeError("composite %s is nonzero; differential "
                               "assembly is inconsistent" % name)

    return [ChainComplexSlice(1, dims[1], d1),
            ChainComplexSlice(2, dims[2], d2),
            ChainComplexSlice(3, dims[3], d3),
            ChainComplexSlice(4, dims[4], d4),
            ChainComplexSlice(5, dims[5], None)]


def betti_koszul(pair, validate=True):
    """Betti numbers b0..b4 from the ranks of the Koszul differentials."""
    slices = build_complex(pair, validate=validate)
    # exact as one complex: build_complex checked ∇∘∇ = 0
    ranks = complex_ranks([s.differential for s in slices[:4]])
    dims = [s.total_dim for s in slices]
    betti = [1,
             dims[0] - ranks[0],
             dims[1] - ranks[1] - ranks[0],
             dims[2] - ranks[2] - ranks[1],
             dims[3] - ranks[3] - ranks[2]]
    diagnostics = {"slice_dims": [s.summand_dims() for s in slices],
                   "ranks": {"∇%d" % (i + 1): ranks[i] for i in range(4)}}
    return BettiReport(betti, "koszul",
                       {"l": pair.algebra.l, "r": pair.algebra.r},
                       diagnostics=diagnostics)
