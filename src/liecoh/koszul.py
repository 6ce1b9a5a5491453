"""Low-degree Koszul complex oracle for the Betti numbers of G/H.

The complex is S(h*)^H ⊗ ∧P, where P is the graded space of primitive
elements of g: P¹ is the annihilator of [g,g] in g* and P³ is spanned by the
r independent 3-forms ρ(B̃ᵢ) with ρ(η)(x,y,z) = η([x,y],z).  ∧P is free on
these generators, so each graded piece has a formal basis of products of
symbols; only the ingredient maps (restriction to h, the product of
polynomials, and B̃ᵢ|ₕ) involve actual linear algebra.  Symmetric
generators carry degree 2, so S²(h*)^H sits in degree 4.

∇ is the derivation fixed by ∇f = f|ₕ on P¹, ∇ρ(B̃ᵢ) = B̃ᵢ|ₕ on P³, the
quadratic form B̃ᵢ(x, x) on h, and ∇ = 0 on S(h*)^H (the Cartan/Koszul
model).  On a basis monomial s⊗ρ(B̃ᵢ)^ε∧f₀∧…∧f_{k−1}, s = 1, ψ or an S²
basis element, the Leibniz rule gives the P³ term B̃ᵢ|ₕ⊗(f's) when s = 1
and, for each letter fₜ, the term (−1)^{t+ε} s·fₜ|ₕ ⊗ ρ(B̃ᵢ)^ε∧(f's
without fₜ).  In degrees 1-5:

    𝒞¹ = 1⊗P¹
    𝒞² = (h*)^H⊗1 ⊕ 1⊗∧²P¹
    𝒞³ = (h*)^H⊗P¹ ⊕ 1⊗P³ ⊕ 1⊗∧³P¹
    𝒞⁴ = S²(h*)^H⊗1 ⊕ (h*)^H⊗∧²P¹ ⊕ 1⊗P³∧P¹ ⊕ 1⊗∧⁴P¹
    𝒞⁵ ⊇ S²(h*)^H⊗P¹ ⊕ (h*)^H⊗P³ ⊕ (h*)^H⊗∧³P¹   (all that ∇⁴ reaches)

Cohomology: b₁ = dim ker ∇¹ and bₖ = dim ker ∇ᵏ − rank ∇ᵏ⁻¹.

Everything runs on sparse data: (h*)^H and S²(h*)^H are the
invariant_polynomials of degree 1 and 2 on h, {sorted index tuple: value}
dicts in the coordinates of h's columns, every restriction to h is a
pullback and every s·fₜ|ₕ a polynomial_product (invariant_forms), and each
∇ᵏ is a linalg.SparseMatrix.  The ranks are taken as one complex
(linalg.complex_ranks), which checks ∇∘∇ = 0 on the columns it ranks.
"""

from itertools import combinations

from .betti import BettiReport
from .invariant_forms import (invariant_polynomials, polynomial_product,
                              pullback)
from .linalg import SparseMatrix, complex_ranks, kernel_basis, nonzero


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
    a SparseMatrix whose zero columns are left out."""

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
        rows.setdefault(t, {})[c] = v
    # every nonzero value, over ordered (a, b) with a != b: each structure
    # constant [e_a, e_b] ∋ c_t e_t meets only row t of eta
    rho = {}
    for (a, b), terms in alg.table.items():
        for t, ct in terms:
            for c, v in rows.get(t, {}).items():
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
    # nonzero forms on the triples of disjoint factors are independent
    if not all(form and all(start <= t[0] and t[2] < stop for t in form)
               for form, (_, start, stop) in zip(rho_forms, alg.factors)):
        raise RuntimeError("the forms ρ(B̃ᵢ) are dependent; the declared "
                           "factors cannot all be simple")
    return PrimitiveBasis(p1, rho_forms)


def _inside(solve, vectors):
    """solve(vectors), coordinates in an invariant space; an escaping vector
    is an internal inconsistency."""
    try:
        return solve(vectors)
    except ValueError:
        raise RuntimeError("a restriction escapes the H-invariants; "
                           "invariance computation is inconsistent") from None


_SUP = "⁰¹²³⁴⁵"
_SYM = ("1", "(h*)^H", "S²(h*)^H")


def _summands(degree, sdims, r, l):
    """The summands of one degree as (name, monomials), j descending and the
    one with P³ first; a monomial (j, s, i, w) runs over s, then i, then w."""
    out = []
    low = 1 if degree == 5 else 0     # ∇⁴ reaches only j >= 1
    for j in range(min(2, degree // 2), low - 1, -1):
        for has_p3 in (True, False):
            k = degree - 2 * j - 3 * has_p3
            if k < 0:
                continue
            right = (["P³"] if has_p3 else []) + (
                ["P¹" if k == 1 else "∧%sP¹" % _SUP[k]] if k else [])
            out.append(("%s⊗%s" % (_SYM[j], "∧".join(right) or "1"),
                        [(j, s, i, w) for s in range(sdims[j])
                         for i in (range(r) if has_p3 else [None])
                         for w in combinations(range(l), k)]))
    return out


def build_complex(pair, validate=True):
    """Degrees 1-5 of the complex with the differentials ∇¹..∇⁴, whose
    composites are checked when it is ranked (linalg.complex_ranks)."""
    if validate:
        pair.validation.ensure()
    h = pair.h
    prim = primitive_basis(pair)
    inv = invariant_polynomials(pair, h, 1)
    s2, s2_of_btilde = pair.h_forms, pair.h_btilde
    restr = pullback(({(i,): v for i, v in f.items()} for f in prim.p1_basis),
                     h.columns)
    l, r, p = prim.p1_dim, prim.p3_dim, inv.dim

    # the rule's products: 1·f|ₕ in (h*)^H; B̃ᵢ|ₕ, ψ_k·f|ₕ in S²(h*)^H
    psi_of_restr = _inside(inv.coordinates, restr)
    s2_of_product = [_inside(s2.coordinates,
                             [polynomial_product(psi, f) for f in restr])
                     for psi in inv.form_basis]

    def nabla(j, s, i, w):
        """∇ of one monomial as (monomial, value) terms."""
        terms = []
        if i is not None:   # here s = 1: ψ⊗P³ first occurs in degree 5
            terms += [((2, t, None, w), v) for t, v in s2_of_btilde[i].items()]
        for t, f in enumerate(w):
            prod = s2_of_product[s][f] if j else psi_of_restr[f]
            sign = -1 if (t + (i is not None)) % 2 else 1
            terms += [((j + 1, u, i, w[:t] + w[t + 1:]), sign * v)
                      for u, v in prod.items()]
        return terms

    summands = [_summands(d, (1, p, s2.dim), r, l) for d in range(1, 6)]
    index = [{m: row for row, m in enumerate(m for _, ms in sl for m in ms)}
             for sl in summands]
    maps = []
    for source, target in zip(index, index[1:]):
        cols = {}
        for col, mono in enumerate(source):
            acc = {}
            for m, v in nabla(*mono):
                acc[target[m]] = acc.get(target[m], 0) + v
            if acc := nonzero(acc):
                cols[col] = acc
        maps.append(SparseMatrix(cols, len(target), len(source)))
    return [ChainComplexSlice(d, [(name, len(ms)) for name, ms in sl],
                              maps[d - 1] if d < 5 else None)
            for d, sl in enumerate(summands, 1)]


def betti_koszul(pair, validate=True):
    """Betti numbers b0..b4 from the ranks of the Koszul differentials."""
    slices = build_complex(pair, validate=validate)
    # ranked as one complex, which checks ∇∘∇ = 0; ∇⁰ = 0 on 𝒞⁰ = Q·1
    # leads, so map k is ∇ᵏ and a nonzero composite names its degree
    ranks = complex_ranks([SparseMatrix({}, slices[0].total_dim, 1)]
                          + [s.differential for s in slices[:4]])
    dims = [s.total_dim for s in slices]
    betti = [1] + [d - r - s for d, r, s in zip(dims, ranks[1:], ranks)]
    diagnostics = {"slice_dims": [s.summand_dims() for s in slices],
                   "ranks": {"∇%d" % k: ranks[k] for k in range(1, 5)}}
    return BettiReport(betti, "koszul",
                       {"l": pair.algebra.l, "r": pair.algebra.r},
                       diagnostics=diagnostics)
