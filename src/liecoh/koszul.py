"""Low-degree Koszul complex oracle for the Betti numbers of G/H.

The complex is Cartan's model S(h*)^H ⊗ ∧P, with P free on odd primitive
generators.  In degrees ≤ 5 these are one P³ generator xᵢ per simple
factor, with ∇xᵢ = B̃ᵢ|ₕ (the quadratic form B̃ᵢ(x, x) on h, in S²(h*)^H),
and P¹, the center's coordinate covectors, with ∇f = f|ₕ in (h*)^H.
Symmetric generators carry degree 2, so S²(h*)^H sits in degree 4, and
∇ = 0 on S(h*)^H.  One Leibniz rule builds every column:

    ∇(s⊗w₀∧…∧w_{k−1}) = Σₜ (−1)ᵗ s·∇wₜ ⊗ (w without wₜ).

A word w lists the P³ generator first, so in degrees 1-5:

    𝒞¹ = 1⊗P¹
    𝒞² = (h*)^H⊗1 ⊕ 1⊗∧²P¹
    𝒞³ = (h*)^H⊗P¹ ⊕ 1⊗P³ ⊕ 1⊗∧³P¹
    𝒞⁴ = S²(h*)^H⊗1 ⊕ (h*)^H⊗∧²P¹ ⊕ 1⊗P³∧P¹ ⊕ 1⊗∧⁴P¹
    𝒞⁵ ⊇ S²(h*)^H⊗P¹ ⊕ (h*)^H⊗P³ ⊕ (h*)^H⊗∧³P¹

where 𝒞⁵ lists only S-degree j ≥ 1, since ∇ raises the S-degree and that
is all ∇⁴ reaches.  Cohomology: b₁ = dim ker ∇¹ and bₖ = dim ker ∇ᵏ −
rank ∇ᵏ⁻¹.

Everything runs on sparse data: (h*)^H and S²(h*)^H are the
invariant_polynomials of degree 1 and 2 on h, {sorted index tuple: value}
dicts in the coordinates of h's columns, each f|ₕ is a pullback and each
ψ·f|ₕ a polynomial_product (invariant_forms), and each ∇ᵏ is a
linalg.SparseMatrix.  The ranks are taken as one complex
(linalg.complex_ranks), which checks ∇∘∇ = 0 on the columns it ranks.
"""

from itertools import combinations

from .betti import BettiReport
from .invariant_forms import (invariant_polynomials, polynomial_product,
                              pullback)
from .linalg import SparseMatrix, complex_ranks, nonzero


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
    one with P³ first; a monomial (j, s, w) runs over s, then the word w of
    generators (P³ numbered 0..r−1, P¹ numbered r..r+l−1)."""
    out = []
    low = 1 if degree == 5 else 0     # ∇⁴ reaches only j >= 1
    for j in range(min(2, degree // 2), low - 1, -1):
        for p3 in (1, 0):
            k = degree - 2 * j - 3 * p3
            if k < 0:
                continue
            right = ["P³"] * p3 + (
                ["P¹" if k == 1 else "∧%sP¹" % _SUP[k]] if k else [])
            words = [a + b for a in combinations(range(r), p3)
                     for b in combinations(range(r, r + l), k)]
            out.append(("%s⊗%s" % (_SYM[j], "∧".join(right) or "1"),
                        [(j, s, w) for s in range(sdims[j]) for w in words]))
    return out


def build_complex(pair, validate=True):
    """Degrees 1-5 of the complex with the differentials ∇¹..∇⁴, whose
    composites are checked when it is ranked (linalg.complex_ranks)."""
    if validate:
        pair.validation.ensure()
    r, l = pair.algebra.r, pair.algebra.l
    inv, s2 = invariant_polynomials(pair, pair.h, 1), pair.h_forms
    restr = pullback(({(i,): 1} for i in range(l)), pair.h.columns)
    # times[j, s][x] = s·∇x in coordinates, for the s and x that columns of
    # 𝒞¹..𝒞⁴ meet: s = 1 with ∇xᵢ = B̃ᵢ|ₕ and ∇f = f|ₕ, s = ψ with ψ·f|ₕ
    times = {(0, 0): dict(enumerate(
        pair.h_btilde + _inside(inv.coordinates, restr)))}
    for s, psi in enumerate(inv.form_basis):
        times[1, s] = dict(enumerate(_inside(
            s2.coordinates, [polynomial_product(psi, f) for f in restr]), r))

    def nabla(j, s, w):
        """∇ of one monomial as (monomial, value) terms; ∇x raises the
        S-degree by 2 on P³ and by 1 on P¹."""
        return [((j + 1 + (x < r), u, w[:t] + w[t + 1:]), -v if t % 2 else v)
                for t, x in enumerate(w) for u, v in times[j, s][x].items()]

    summands = [_summands(d, (1, inv.dim, s2.dim), r, l) for d in range(1, 6)]
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
