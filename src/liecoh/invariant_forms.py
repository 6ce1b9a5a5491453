"""Invariant polynomials and the restriction map Ψ.

A polynomial on a carrier subspace V ⊆ h is held as its monomial
coefficients in the coordinates x_i of the carrier's basis, a {sorted
index tuple: value} dict with no zero value, in every degree: a covector
is {(i,): value} and a symmetric bilinear form F the quadratic form
F(x, x).  invariant_polynomials builds every invariant space, a kernel on
the monomials of one degree, from two rules:

* a derivation, Y·x_i = −Σ_j R_ij x_j for R = ad Y on V, extended by
  Leibniz.  The Y that kill a polynomial are a subalgebra, as [Y, Z]·f =
  Y·(Z·f) − Z·(Y·f) (Chevalley–Eilenberg 1948; Koszul 1950), so one
  operator per Lie generator of h (liealg.lie_generators) imposes
  invariance under h.  derivation_operators builds them; liealg.validate
  counts a factor's invariant quadratic forms through it too;
* a pullback, f ↦ f∘M for a matrix M given by its columns: f∘γ = f for
  each component generator γ, and the restriction of a polynomial on g
  (B̃ᵢ, a covector of P¹) to a carrier.

Every space is built on graded monomials only.  Each Lie generator Y of
h lies in h, so an invariant polynomial f has Y·f = 0 and exp(π R)
fixes it, R = ad Y on the carrier; where exp(π R) is a sign matrix
(linalg.half_turn_signs) f lies on the monomials of even parity, and a
monomial's parity is that of its set J of odd powers.  So
derivation_operators numbers J plus twice any multiset, J a graded wedge
monomial of linalg.graded_monomials, in combinations_with_replacement
order.  The derivations and pullbacks take their columns there and their
rows anywhere (a pullback need not keep the grading), and a polynomial
with a coefficient elsewhere is outside the space.

The product of two polynomials merges their sorted index tuples.  On h
itself the ad operators come from the pair's table (h_ad), and S²(h*)^H
and the coordinates of each B̃ᵢ|_h in it are built once per pair (h_forms,
h_btilde): decompose returns h itself as h∩[g,g] when h ⊆ [g,g], so Ψ and
the Koszul complex share both.
"""

from itertools import chain, combinations_with_replacement

from .linalg import (SparseMatrix, combination, coordinates,
                     graded_monomials, half_turn_signs, intersect_kernels,
                     minus_identity, nonzero, rank, transpose)


def polynomial_product(f, g):
    """The product fg of two polynomials: each pair of monomials merges
    its sorted index tuples."""
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            key = tuple(sorted(a + b))
            out[key] = out.get(key, 0) + x * y
    return nonzero(out)


def pullback(polys, columns):
    """f∘M for each polynomial f, M given by its sparse columns: each x_i
    becomes row i of M, the linear form Σ_j M_ij y_j.  f's index tuples
    need not be sorted, so a bilinear form {(a, b): value} pulls back to
    its quadratic form."""
    rows = {i: {(j,): v for j, v in row.items()}
            for i, row in transpose(columns).items()}
    out = []
    for f in polys:
        acc = {}
        for mon, c in f.items():
            term = {(): c}
            for i in mon:
                term = polynomial_product(term, rows.get(i, {}))
            for key, v in term.items():
                acc[key] = acc.get(key, 0) + v
        out.append(nonzero(acc))
    return out


class InvariantFormSpace:
    """Invariant polynomials of one degree on a carrier, optionally with
    the Ψ data.

    space is the kernel on the positions {monomial: position} of index,
    the identity on its free rows (intersect_kernels); form_basis holds its
    columns as polynomials.  From psi_analysis, psi_matrix's column i holds
    the coordinates of B̃ᵢ restricted to the carrier in form_basis, and
    rank_psi/dim_N/dim_C are its rank, kernel and cokernel dimensions.
    """

    def __init__(self, carrier, index, space, psi_matrix=None,
                 rank_psi=None, dim_N=None, dim_C=None):
        self.carrier = carrier
        self.index = index
        self.space = space
        monomials = list(index)
        self.form_basis = [{monomials[r]: v for r, v in col.items()}
                           for col in space.columns]
        self.psi_matrix = psi_matrix
        self.rank_psi = rank_psi
        self.dim_N = dim_N
        self.dim_C = dim_C

    @property
    def dim(self):
        return self.space.dim

    def coordinates(self, polys):
        """Coordinates {j: value} of polynomials in form_basis, read off
        the free rows; raises ValueError if one of them is not in the
        span, as when it has a coefficient outside index."""
        return coordinates(self.space, [
            {self.index.get(m, m): v for m, v in f.items()} for f in polys])


def ad_coordinates(alg, carrier, x):
    """Carrier coordinates of [x, c_j] for the carrier columns c_j."""
    return coordinates(carrier, [alg.bracket_sparse(x, c)
                                 for c in carrier.columns])


def action_coordinates(gcols, carrier):
    """Carrier coordinates of γ c_j, γ given by its sparse columns."""
    return coordinates(carrier, [combination(gcols, c)
                                 for c in carrier.columns])


def _derivation_operator(images, insertions):
    """Sparse columns, on the graded monomials of one degree, of the
    derivation with Y·x_i = −Σ_j R_ij x_j, R given by its rows
    images[i] = {j: R_ij}.  By Leibniz, x_i·x^r goes to
    −μ Σ_j R_ij x_j·x^r for each monomial x^r of the degree below, μ the
    power of x_i in x_i·x^r; insertions maps i to the (μ, position, at) of
    each graded x_i·x^r, at[j] the row of x_j·x^r: the position of a graded
    monomial, else its index tuple, which is a row but no column."""
    op = {}
    for i, image in images.items():
        for mu, col, at in insertions.get(i, ()):
            acc = op.setdefault(col, {})
            for j, v in image.items():
                row = at[j]
                acc[row] = acc.get(row, 0) - mu * v
    return {col: nz for col, acc in op.items() if (nz := nonzero(acc))}


class _Rows(dict):
    """at[j] of _derivation_operator for one x^r, each row found when it
    is first read: only the j some R_ij reaches are."""
    __slots__ = ("rest", "index")

    def __init__(self, rest, index):       # starts empty, as dict() does
        self.rest, self.index = rest, index

    def __missing__(self, j):
        key = tuple(sorted(self.rest + (j,)))
        row = self[j] = self.index.get(key, key)
        return row


def _graded_symmetric(m, masks, degree):
    """The monomials of one degree in m variables whose set J of odd
    powers has J & S of even popcount for every mask S, as sorted index
    tuples in combinations_with_replacement order: J, a graded wedge
    monomial, plus twice any multiset of size (degree − |J|)/2.  With no
    mask that is every monomial."""
    if not masks:
        return list(combinations_with_replacement(range(m), degree))
    return sorted(
        tuple(sorted(odd + half + half))
        for level in graded_monomials(m, masks, degree)[degree % 2::2]
        for odd in (tuple(i for i in range(m) if mon >> i & 1)
                    for mon in level)
        for half in combinations_with_replacement(range(m),
                                                  (degree - len(odd)) // 2))


def derivation_operators(ads, m, degree):
    """(index, operators) on the graded monomials of one degree in m
    variables: index maps each sorted index tuple to its position, and
    operators yields, lazily, the derivation (_derivation_operator) of
    each R in ads.  Their common kernel is the polynomials invariant under
    the Lie algebra the R generate.  An invariant f is fixed by
    exp(π R) for each R, so when that is a sign matrix (half_turn_signs)
    f lies on the monomials it fixes, the graded ones."""
    ads = list(ads)
    masks = [sum(1 << i for i, x in enumerate(signs) if x < 0)
             for R in ads if (signs := half_turn_signs(R, m))]
    index = {mon: t for t, mon in enumerate(
        _graded_symmetric(m, masks, degree))}
    insertions, rows = {}, {}
    for mon, t in index.items():
        for p, i in enumerate(mon):
            if not p or mon[p - 1] != i:
                rest = mon[:p] + mon[p + 1:]
                if (at := rows.get(rest)) is None:
                    at = rows[rest] = _Rows(rest, index)
                insertions.setdefault(i, []).append((mon.count(i), t, at))
    return index, (_derivation_operator(transpose(R), insertions)
                   for R in ads)


def invariant_polynomials(pair, carrier, degree):
    """H-invariant homogeneous polynomials of a degree on a carrier
    subspace of h, as an InvariantFormSpace.

    The carrier must be stable under bracketing with h and under the
    generators (the uses here: h and h∩[g,g]).
    """
    index, derivations = derivation_operators(
        (pair.h_ad(t) if carrier is pair.h
         else ad_coordinates(pair.algebra, carrier, pair.h.columns[t])
         for t in pair.h_lie_indices), carrier.dim, degree)
    # f∘γ − f on the graded monomials, γ in carrier coordinates, with
    # rows outside them keyed by monomial: γ need not keep the grading
    fixed = (minus_identity([{index.get(key, key): v
                              for key, v in f.items()} for f in
                             pullback(({mon: 1} for mon in index),
                                      action_coordinates(gcols, carrier))],
                            len(index))
             for gcols in pair.generator_columns)
    space = intersect_kernels(chain(derivations, fixed), len(index))
    return InvariantFormSpace(carrier, index, space)


def restricted_btilde(pair, forms):
    """Coordinates in forms of each quadratic form B̃ᵢ(x, x) restricted to
    the carrier of forms, all r through one pullback."""
    alg = pair.algebra
    try:
        return forms.coordinates(pullback(
            (alg.btilde(i) for i in range(alg.r)), forms.carrier.columns))
    except ValueError:
        raise RuntimeError("restricted factor form escapes the invariant "
                           "space; pair validation must have been skipped"
                           ) from None


def psi_analysis(pair):
    """Restriction of the per-factor forms B̃ᵢ to h∩[g,g], in invariant terms.

    Returns an InvariantFormSpace of S²((h∩[g,g])*)^H whose psi_matrix
    column i is the coordinate vector of B̃ᵢ|_{h∩[g,g]} in form_basis;
    dim_N and dim_C are the kernel and cokernel dimensions of that matrix.
    B̃ᵢ is read off the Killing block of factor i through the carrier's
    columns.  On h itself both come from the pair (h_forms, h_btilde).
    """
    hcapgg = pair.decomposition.hcapgg
    if hcapgg is pair.h:
        forms, psi = pair.h_forms, pair.h_btilde
    else:
        forms = invariant_polynomials(pair, hcapgg, 2)
        psi = restricted_btilde(pair, forms)
    r = pair.algebra.r
    rank_psi = rank(psi, forms.dim)
    return InvariantFormSpace(
        forms.carrier, forms.index, forms.space,
        SparseMatrix({i: c for i, c in enumerate(psi) if c}, forms.dim, r),
        rank_psi, r - rank_psi, forms.dim - rank_psi)

