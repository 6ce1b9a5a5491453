"""Invariant symmetric bilinear forms and the restriction map Ψ.

Invariance under the identity component H⁰ is imposed infinitesimally,
by ad-invariance under a Lie generating set of h (liealg.lie_generators):
the x ∈ h that kill a form are a subalgebra, as [x, y]·F = x·(y·F) −
y·(x·F) (Chevalley–Eilenberg 1948; Koszul 1950), so this is invariance
under h.  Invariance under the component group is imposed through the
generators' sparse columns.  A form on a carrier subspace V ⊆ h is held
as its symmetric coordinates in the carrier's basis: a {(i, j): value}
dict with i ≤ j and no zero entries.  The constraint operators act on
these coordinates, indexed by the pairs (i, j), i ≤ j, in lexicographic
order.

On h itself the ad operators come from the pair's table (h_ad), and
S²(h*)^H is built once per pair (h_forms): decompose returns h itself as
h∩[g,g] when h ⊆ [g,g], so Ψ and the Koszul complex share it.
"""

from itertools import chain

from .liealg import bracket_closure, schur_certified
from .linalg import (SparseMatrix, Subspace, combination,
                     commutant_operator, coordinates, intersect_kernels,
                     minus_identity, nonzero, rank, trace_gram, transpose)


def sym_pairs(m):
    """Index pairs (i, j), i <= j, of a symmetric m x m matrix, lex order."""
    return [(i, j) for i in range(m) for j in range(i, m)]


def vee(alpha, beta):
    """Symmetric product (α∨β)(x, y) = α(x)β(y) + α(y)β(x) of two sparse
    covectors {i: value}, as symmetric coordinates."""
    out = {}
    for i, a in alpha.items():
        for j, b in beta.items():
            key = (i, j) if i <= j else (j, i)
            out[key] = out.get(key, 0) + (2 * a * b if i == j else a * b)
    return {key: v for key, v in out.items() if v}


def restrict_form(eta, columns):
    """Symmetric coordinates {(s, t): η(c_s, c_t)}, s ≤ t, of a bilinear
    form η given by its nonzeros {(a, b): value}, on sparse columns c_s."""
    rows = {}
    for (a, b), v in eta.items():
        rows.setdefault(a, {})[b] = v
    left = [combination(rows, c) for c in columns]
    return {(s, t): val for s, u in enumerate(left)
            for t in range(s, len(columns))
            if (val := sum(u.get(b, 0) * y for b, y in columns[t].items()))}


class InvariantFormSpace:
    """Invariant symmetric forms on a carrier, optionally with the Ψ data.

    form_basis spans the H-invariant forms on the carrier, each as
    symmetric coordinates {(i, j): value}.  When produced by psi_analysis,
    psi_matrix is the SparseMatrix whose column i holds the coordinates of
    the restricted form B̃ᵢ in form_basis, and rank_psi/dim_N/dim_C are the
    rank, kernel dimension and cokernel dimension of that matrix.
    """

    def __init__(self, carrier, form_basis, psi_matrix=None,
                 rank_psi=None, dim_N=None, dim_C=None):
        self.carrier = carrier
        self.form_basis = form_basis
        self.psi_matrix = psi_matrix
        self.rank_psi = rank_psi
        self.dim_N = dim_N
        self.dim_C = dim_C

    @property
    def dim(self):
        return len(self.form_basis)

    def coordinates(self, forms):
        """Coordinates {j: value} of symmetric forms in form_basis.

        One elimination for all forms; raises ValueError if one of them is
        not in the span.
        """
        index = {p: t for t, p in enumerate(sym_pairs(self.carrier.dim))}
        space = Subspace.from_columns(len(index), [
            {index[p]: v for p, v in f.items()} for f in self.form_basis])
        return coordinates(space, [{index[p]: v for p, v in f.items()}
                                   for f in forms])


def ad_coordinates(alg, carrier, x):
    """Carrier coordinates of [x, c_j] for the carrier columns c_j."""
    return coordinates(carrier, [alg.bracket_sparse(x, c)
                                 for c in carrier.columns])


def action_coordinates(gcols, carrier):
    """Carrier coordinates of γ c_j, γ given by its sparse columns."""
    return coordinates(carrier, [combination(gcols, c)
                                 for c in carrier.columns])


def fixed_vectors(space, actions):
    """{v ∈ space : γ v = v for every action γ}; space itself if no actions.

    Each action is given by its sparse columns γ e_i.  Raises ValueError if
    some action does not map the space into itself.
    """
    if not actions:
        return space
    coords = intersect_kernels(
        [minus_identity(action_coordinates(gcols, space), space.dim)
         for gcols in actions], space.dim)
    return Subspace.from_columns(space.ambient_dim, [
        combination(space.columns, c) for c in coords.columns])


def _ad_constraint(R, pairs):
    """Sparse columns of F ↦ RᵀF + FR on symmetric coordinates
    (ad-invariance), R given by its sparse columns; the image of a unit
    form only meets rows i and j of R."""
    index = {p: t for t, p in enumerate(pairs)}
    rows = transpose(R)
    op = {}
    for col, (i, j) in enumerate(pairs):
        acc = {}
        for s, t in ((i, j), (j, i)) if i < j else ((i, i),):
            # row s of R lands in row/column t of the image form
            for p, v in rows.get(s, {}).items():
                key = index[(p, t) if p < t else (t, p)]
                acc[key] = acc.get(key, 0) + (2 * v if p == t else v)
        if acc := nonzero(acc):
            op[col] = acc
    return op


def _generator_constraint(C, pairs):
    """Sparse columns of F ↦ CᵀFC − F on symmetric coordinates
    (γ-invariance), C given by its sparse columns; the image of a unit form
    only meets rows i and j of C."""
    index = {p: t for t, p in enumerate(pairs)}
    rows = transpose(C)
    op = {}
    for col, (i, j) in enumerate(pairs):
        acc = {col: -1}
        ri, rj = (rows.get(t, {}) for t in (i, j))
        for a, u in ri.items():
            # CᵀE_ijC is u vᵀ + v uᵀ (i < j) or u uᵀ (i = j) for u, v the
            # rows i, j of C, taken over the pairs a <= b when i = j; an
            # unordered diagonal product counts twice
            for b, w in rj.items():
                if i < j or a <= b:
                    key = index[(a, b) if a <= b else (b, a)]
                    val = 2 * u * w if a == b and i < j else u * w
                    acc[key] = acc.get(key, 0) + val
        if acc := nonzero(acc):
            op[col] = acc
    return op


def invariant_sym_forms(pair, carrier):
    """H-invariant symmetric bilinear forms on a carrier subspace of h.

    The carrier must be stable under bracketing with h and under the
    generators (the uses here: h, h∩[g,g], z(h)).
    """
    pairs = sym_pairs(carrier.dim)
    ads = (pair.h_ad(t) if carrier is pair.h
           else ad_coordinates(pair.algebra, carrier, pair.h.columns[t])
           for t in pair.h_lie_indices)
    operators = chain(
        (_ad_constraint(R, pairs) for R in ads),
        (_generator_constraint(action_coordinates(gcols, carrier), pairs)
         for gcols in pair.generator_columns))
    coords = intersect_kernels(operators, len(pairs))
    return InvariantFormSpace(carrier, [
        {pairs[r]: v for r, v in col.items()} for col in coords.columns])


def psi_analysis(pair, dec=None):
    """Restriction of the per-factor forms B̃ᵢ to h∩[g,g], in invariant terms.

    Returns an InvariantFormSpace on h∩[g,g] whose psi_matrix column i is
    the coordinate vector of B̃ᵢ|_{(h∩[g,g])²} in form_basis; dim_N and
    dim_C are the kernel and cokernel dimensions of that matrix.  B̃ᵢ is
    read off the Killing block of factor i through the carrier's columns.
    """
    from .pairs import decompose
    if dec is None:
        dec = decompose(pair)
    alg = pair.algebra
    forms = (pair.h_forms if dec.hcapgg is pair.h
             else invariant_sym_forms(pair, dec.hcapgg))
    r = alg.r
    try:
        psi = forms.coordinates([restrict_form(alg.btilde(i),
                                               dec.hcapgg.columns)
                                 for i in range(r)])
    except ValueError:
        raise RuntimeError("restricted factor form escapes the invariant "
                           "space; pair validation must have been skipped"
                           ) from None
    rank_psi = rank(psi, forms.dim)
    return InvariantFormSpace(
        forms.carrier, forms.form_basis,
        SparseMatrix({i: c for i, c in enumerate(psi) if c}, forms.dim, r),
        rank_psi, r - rank_psi, forms.dim - rank_psi)


def minimal_ideal_count(pair, s):
    """Number of generator orbits on the simple ideals of a semisimple s.

    Diagnostic only.  For compact semisimple s the commutant of ad(s) on s
    is spanned by the projections πᵢ onto its simple ideals, and each
    generator γ permutes them by conjugation, so the orbits are counted by
    the dimension of {P in the commutant : CP = PC for every generator's
    restriction C}.  That is one intersect_kernels call over Q, which
    never has to find the ideals themselves.  A simple s that
    liealg.schur_certified proves so returns 1 without it, as a generator
    cannot merge a single ideal; like the Lie generator reduction, this
    assumes Jacobi.  On s = pair.h the closure pass and the ad table are
    the pair's own.
    """
    alg = pair.algebra
    gens, dim = ((pair.h_lie_indices, s.dim) if s is pair.h and pair.h_closed
                 else bracket_closure(alg, s.columns))
    if dim != s.dim:
        raise ValueError("not a subalgebra")
    m = s.dim
    if m == 0:
        return 0
    ads = [pair.h_ad(t) if s is pair.h else ad_coordinates(alg, s, x)
           for t, x in enumerate(s.columns)]
    # Killing form of s: trace(ad sᵢ ad sⱼ)
    if rank(trace_gram(ads), m) != m:
        raise ValueError("subspace is not semisimple (degenerate Killing form)")
    if schur_certified(ads):
        return 1
    ops = [ads[t] for t in gens]
    ops += [action_coordinates(gcols, s) for gcols in pair.generator_columns]
    return intersect_kernels((commutant_operator(R, m, 0) for R in ops),
                             m * m).dim
