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
"""

from itertools import combinations

from .betti import BettiReport
from .invariant_forms import (invariant_sym_forms, restricted_operator,
                              sym_coords, sym_pairs, vee)
from .linalg import (F0, dot, feye, fzeros, intersect_kernels, is_zero,
                     kernel_basis, nonzeros, rank, solve_many)
from .pairs import validate_pair


class PrimitiveBasis:
    """P¹ as concrete covectors; P³ as symbols backed by the forms ρ(B̃ᵢ)."""

    def __init__(self, p1_basis, rho_forms):
        self.p1_basis = p1_basis      # list of length-n covectors
        self.rho_forms = rho_forms    # list of {(a,b,c): value}, a<b<c

    @property
    def p1_dim(self):
        return len(self.p1_basis)

    @property
    def p3_dim(self):
        return len(self.rho_forms)


class ChainComplexSlice:
    """One degree of the complex: named summand dimensions + differential."""

    def __init__(self, degree, summands, differential=None):
        self.degree = degree
        self.summands = list(summands)
        self.total_dim = sum(d for _, d in summands)
        self.differential = differential

    def summand_dims(self):
        return {name: d for name, d in self.summands}


def cartan_rho(alg, eta):
    """The alternating 3-form ρ(η)(x,y,z) = η([x,y],z) on basis triples.

    Returns {(a,b,c): value} over strictly increasing triples.  Raises
    ValueError("eta not invariant") if the result fails to alternate, which
    happens exactly when eta is not ad-invariant.
    """
    rows = {}
    for (t, c), v in nonzeros(eta).items():
        rows.setdefault(t, []).append((c, v))
    # every nonzero value, over ordered (a, b) with a != b: each structure
    # constant [e_a, e_b] ∋ c_t e_t meets only row t of eta
    rho = {}
    for (a, b), terms in alg.table.items():
        for t, ct in terms:
            for c, v in rows.get(t, ()):
                rho[(a, b, c)] = rho.get((a, b, c), F0) + ct * v
    rho = {k: v for k, v in rho.items() if v}
    for (a, b, c), v in list(rho.items()):
        rho[(b, a, c)] = -v
    # antisymmetric in (x,y) by construction; alternating iff additionally
    # antisymmetric under swapping the last two arguments
    for (a, b, c), v in rho.items():
        if rho.get((a, c, b), F0) != -v:
            raise ValueError("eta not invariant")
    return {k: v for k, v in rho.items() if k[0] < k[1] < k[2]}


def primitive_basis(pair):
    """P¹ (annihilator of [g,g]) and the r forms ρ(B̃ᵢ), independence-checked."""
    alg = pair.algebra
    derived = alg.derived_subspace()
    ann = kernel_basis(derived.basis.T)
    p1 = [ann.basis[:, j] for j in range(ann.dim)]
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


class _Ingredients:
    """Per-pair data every differential block needs."""

    def __init__(self, pair):
        alg = pair.algebra
        self.pair = pair
        self.prim = primitive_basis(pair)
        H = pair.h_basis
        m = pair.h.dim

        # (h*)^H: covectors on h killed by the coadjoint action of h and
        # fixed by the generators (condition Cᵀc = c with C = γ|ₕ in coords)
        ops = []
        for t in range(m):
            brackets = [alg.bracket(H[:, t], H[:, j]) for j in range(m)]
            ops.append(restricted_operator(pair.h, brackets).T)
        for g in pair.generators:
            C = restricted_operator(pair.h, [g.dot(H[:, j]) for j in range(m)])
            ops.append(C.T - feye(m))
        inv = intersect_kernels(ops, m)
        self.psi = [inv.basis[:, j] for j in range(inv.dim)]
        self.psi_matrix = inv.basis

        s2 = invariant_sym_forms(pair, pair.h)
        self.s2_forms = s2.form_basis
        self._pairs = sym_pairs(m)
        self.s2_matrix = fzeros(len(self._pairs), len(self.s2_forms))
        for j, form in enumerate(self.s2_forms):
            self.s2_matrix[:, j] = sym_coords(form, self._pairs)

        self.restr = [dot(H.T, f) for f in self.prim.p1_basis]
        self.btilde_h = [dot(dot(H.T, alg.btilde(i)), H) for i in range(alg.r)]

    def psi_coords(self, covector):
        coords = solve_many(self.psi_matrix, covector.reshape(-1, 1))
        if coords is None:
            raise RuntimeError("restriction escapes (h*)^H; invariance "
                               "computation is inconsistent")
        return coords[:, 0]

    def s2_coords(self, form):
        coords = solve_many(self.s2_matrix,
                            sym_coords(form, self._pairs).reshape(-1, 1))
        if coords is None:
            raise RuntimeError("form escapes S²(h*)^H; invariance "
                               "computation is inconsistent")
        return coords[:, 0]


def build_complex(pair, validate=True):
    """Degrees 1-5 of the complex with the differentials ∇¹..∇⁴."""
    if validate:
        validate_pair(pair).ensure()
    ing = _Ingredients(pair)
    l = ing.prim.p1_dim
    r = ing.prim.p3_dim
    p = len(ing.psi)
    q2 = len(ing.s2_forms)

    w2 = list(combinations(range(l), 2))
    w3 = list(combinations(range(l), 3))
    w4 = list(combinations(range(l), 4))
    i2 = {w: i for i, w in enumerate(w2)}
    i3 = {w: i for i, w in enumerate(w3)}

    dims = {1: [("1⊗P¹", l)],
            2: [("(h*)^H⊗1", p), ("1⊗∧²P¹", len(w2))],
            3: [("(h*)^H⊗P¹", p * l), ("1⊗P³", r), ("1⊗∧³P¹", len(w3))],
            4: [("S²(h*)^H⊗1", q2), ("(h*)^H⊗∧²P¹", p * len(w2)),
                ("1⊗P³∧P¹", r * l), ("1⊗∧⁴P¹", len(w4))],
            5: [("S²(h*)^H⊗P¹", q2 * l), ("(h*)^H⊗P³", p * r),
                ("(h*)^H⊗∧³P¹", p * len(w3))]}
    total = {d: sum(x for _, x in dims[d]) for d in dims}

    psi_of_restr = [ing.psi_coords(v) for v in ing.restr]
    s2_of_btilde = [ing.s2_coords(B) for B in ing.btilde_h]
    s2_of_vee = [[ing.s2_coords(vee(ing.psi[k], ing.restr[j]))
                  for j in range(l)] for k in range(p)]

    # ∇¹: column 1⊗f_j ↦ f_j|ₕ⊗1
    d1 = fzeros(total[2], total[1])
    for j in range(l):
        d1[0:p, j] = psi_of_restr[j]

    # ∇²: ψ⊗1 ↦ 0; 1⊗f_a∧f_b ↦ f_a|ₕ⊗f_b − f_b|ₕ⊗f_a
    d2 = fzeros(total[3], total[2])
    for (a, b), col0 in i2.items():
        col = p + col0
        for k in range(p):
            d2[k * l + b, col] += psi_of_restr[a][k]
            d2[k * l + a, col] -= psi_of_restr[b][k]

    # ∇³ blocks; 𝒞⁴ row offsets
    off_s2, off_pw2, off_p3w1, off_w4 = (0, q2, q2 + p * len(w2),
                                         q2 + p * len(w2) + r * l)
    d3 = fzeros(total[4], total[3])
    for k in range(p):
        for j in range(l):
            col = k * l + j
            d3[off_s2:off_s2 + q2, col] = s2_of_vee[k][j]
    for i in range(r):
        col = p * l + i
        d3[off_s2:off_s2 + q2, col] = s2_of_btilde[i]
    for col0, triple in enumerate(w3):
        col = p * l + r + col0
        for t in range(3):
            rest = tuple(x for s, x in enumerate(triple) if s != t)
            sign = 1 if t % 2 == 0 else -1
            for k in range(p):
                coef = psi_of_restr[triple[t]][k]
                if coef:
                    d3[off_pw2 + k * len(w2) + i2[rest], col] += sign * coef

    # ∇⁴ blocks; 𝒞⁵ row offsets
    off5_s2p1, off5_pp3, off5_pw3 = 0, q2 * l, q2 * l + p * r
    d4 = fzeros(total[5], total[4])
    for k in range(p):
        for (a, b), col0 in i2.items():
            col = off_pw2 + k * len(w2) + col0
            for t in range(q2):
                va = s2_of_vee[k][a][t]
                vb = s2_of_vee[k][b][t]
                if va:
                    d4[off5_s2p1 + t * l + b, col] += va
                if vb:
                    d4[off5_s2p1 + t * l + a, col] -= vb
    for i in range(r):
        for a in range(l):
            col = off_p3w1 + i * l + a
            for t in range(q2):
                if s2_of_btilde[i][t]:
                    d4[off5_s2p1 + t * l + a, col] += s2_of_btilde[i][t]
            for k in range(p):
                coef = psi_of_restr[a][k]
                if coef:
                    d4[off5_pp3 + k * r + i, col] -= coef
    for col0, quad in enumerate(w4):
        col = off_w4 + col0
        for t in range(4):
            rest = tuple(x for s, x in enumerate(quad) if s != t)
            sign = 1 if t % 2 == 0 else -1
            for k in range(p):
                coef = psi_of_restr[quad[t]][k]
                if coef:
                    d4[off5_pw3 + k * len(w3) + i3[rest], col] += sign * coef

    for name, upper, lower in (("∇²∘∇¹", d2, d1), ("∇³∘∇²", d3, d2),
                               ("∇⁴∘∇³", d4, d3)):
        if lower.size and upper.size and not is_zero(upper.dot(lower)):
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
    ranks = [rank(s.differential) for s in slices[:4]]
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
