"""Invariant symmetric bilinear forms and the restriction map Ψ.

Invariance under the identity component H⁰ is imposed infinitesimally
(ad-invariance under a basis of h); invariance under the component group is
imposed through the finitely many generator matrices.  Forms on a carrier
subspace V ⊆ h are represented as symmetric dim(V) × dim(V) Fraction
matrices in the carrier's basis, flattened to coordinates indexed by pairs
(i, j) with i ≤ j in lexicographic order.
"""

import numpy as np

from .liealg import is_bracket_closed
from .linalg import (F0, F1, Subspace, commutant_operator, dot, fzeros,
                     intersect_kernels, nonzeros, rank, solve_many)


def sym_pairs(m):
    """Index pairs (i, j), i <= j, of a symmetric m x m matrix, lex order."""
    return [(i, j) for i in range(m) for j in range(i, m)]


def sym_coords(form, pairs):
    """Flatten a symmetric matrix to its upper-triangle coordinates."""
    out = fzeros(len(pairs))
    for idx, (i, j) in enumerate(pairs):
        out[idx] = form[i, j]
    return out


def sym_matrix(vec, m, pairs):
    """Inverse of sym_coords."""
    out = fzeros(m, m)
    for idx, (i, j) in enumerate(pairs):
        out[i, j] = vec[idx]
        out[j, i] = vec[idx]
    return out


def vee(alpha, beta):
    """Symmetric product of two covectors: (α∨β)(x, y) = α(x)β(y) + α(y)β(x)."""
    return np.outer(alpha, beta) + np.outer(beta, alpha)


class InvariantFormSpace:
    """Invariant symmetric forms on a carrier, optionally with the Ψ data.

    form_basis spans the H-invariant forms on the carrier.  When produced by
    psi_analysis, psi_matrix holds the coordinates of the restricted forms
    B̃₁,…,B̃_r in form_basis, and rank_psi/dim_N/dim_C are the rank, kernel
    dimension and cokernel dimension of that matrix.
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


def fixed_vectors(space, actions):
    """{v ∈ space : γ v = v for every action γ}; space itself if no actions.

    Raises ValueError if some action does not map the space into itself.
    """
    if not actions:
        return space
    B = space.basis
    m = space.dim
    ops = []
    for g in actions:
        moved = g.dot(B)
        if solve_many(B, moved) is None:
            raise ValueError("action does not preserve the subspace")
        ops.append(moved - B)
    coords = intersect_kernels(ops, m)
    return Subspace(space.ambient_dim, B.dot(coords.basis))


def restricted_operator(carrier, vectors):
    """Coordinates of the given ambient vectors in the carrier basis.

    Returns the dim(carrier) x len(vectors) coefficient matrix, from one
    elimination for all vectors; raises ValueError if a vector lies outside
    the carrier.
    """
    rhs = fzeros(carrier.ambient_dim, len(vectors))
    for j, v in enumerate(vectors):
        rhs[:, j] = v
    out = solve_many(carrier.basis, rhs)
    if out is None:
        raise ValueError("vector escapes the carrier subspace")
    return out


def _rows(R):
    """Nonzeros of a dense square matrix, row by row, as (col, value) lists."""
    rows = [[] for _ in range(R.shape[0])]
    for (r, c), v in nonzeros(R).items():
        rows[r].append((c, v))
    return rows


def _ad_constraint(R, pairs):
    """Sparse columns of F ↦ RᵀF + FR on symmetric coordinates
    (ad-invariance); the image of a unit form only meets rows i and j of R."""
    index = {p: t for t, p in enumerate(pairs)}
    rows = _rows(R)
    op = {}
    for col, (i, j) in enumerate(pairs):
        acc = {}
        for s, t in ((i, j), (j, i)) if i < j else ((i, i),):
            # row s of R lands in row/column t of the image form
            for p, v in rows[s]:
                key = index[(p, t) if p < t else (t, p)]
                acc[key] = acc.get(key, F0) + (2 * v if p == t else v)
        op[col] = list(acc.items())
    return op


def _generator_constraint(C, pairs):
    """Sparse columns of F ↦ CᵀFC − F on symmetric coordinates
    (γ-invariance); the image of a unit form only meets rows i and j of C."""
    index = {p: t for t, p in enumerate(pairs)}
    rows = _rows(C)
    op = {}
    for col, (i, j) in enumerate(pairs):
        acc = {col: -F1}
        ri, rj = rows[i], rows[j]
        for x, (a, u) in enumerate(ri):
            # CᵀE_ijC is u vᵀ + v uᵀ (i < j) or u uᵀ (i = j) for u, v the
            # rows i, j of C; an unordered diagonal product counts twice
            for b, w in (rj if i < j else ri[x:]):
                key = index[(a, b) if a <= b else (b, a)]
                val = 2 * u * w if a == b and i < j else u * w
                acc[key] = acc.get(key, F0) + val
        op[col] = list(acc.items())
    return op


def invariant_sym_forms(pair, carrier):
    """H-invariant symmetric bilinear forms on a carrier subspace of h.

    The carrier must be stable under bracketing with h and under the
    generators (the uses here: h, h∩[g,g], z(h)).
    """
    alg = pair.algebra
    m = carrier.dim
    pairs = sym_pairs(m)
    B = carrier.basis

    def operators():
        for t in range(pair.h.dim):
            x = pair.h_basis[:, t]
            R = restricted_operator(carrier, [alg.bracket(x, B[:, j])
                                              for j in range(m)])
            yield _ad_constraint(R, pairs)
        for g in pair.generators:
            C = restricted_operator(carrier, [g.dot(B[:, j]) for j in range(m)])
            yield _generator_constraint(C, pairs)

    coords = intersect_kernels(operators(), len(pairs))
    forms = [sym_matrix(coords.basis[:, j], m, pairs) for j in range(coords.dim)]
    return InvariantFormSpace(carrier, forms)


def psi_analysis(pair, dec=None):
    """Restriction of the per-factor forms B̃ᵢ to h∩[g,g], in invariant terms.

    Returns an InvariantFormSpace on h∩[g,g] whose psi_matrix column i is
    the coordinate vector of B̃ᵢ|_{(h∩[g,g])²} in form_basis; dim_N and
    dim_C are the kernel and cokernel dimensions of that matrix.
    """
    from .pairs import decompose
    if dec is None:
        dec = decompose(pair)
    carrier = dec.hcapgg
    space = invariant_sym_forms(pair, carrier)
    m = carrier.dim
    pairs = sym_pairs(m)
    stack = fzeros(len(pairs), space.dim)
    for j, form in enumerate(space.form_basis):
        stack[:, j] = sym_coords(form, pairs)
    r = pair.algebra.r
    restricted = fzeros(len(pairs), r)
    B = carrier.basis
    for i in range(r):
        restricted[:, i] = sym_coords(dot(dot(B.T, pair.algebra.btilde(i)), B),
                                      pairs)
    psi = solve_many(stack, restricted)
    if psi is None:
        raise RuntimeError("restricted factor form escapes the invariant "
                           "space; pair validation must have been skipped")
    rank_psi = rank(psi)
    space.psi_matrix = psi
    space.rank_psi = rank_psi
    space.dim_N = r - rank_psi
    space.dim_C = space.dim - rank_psi
    return space


def minimal_ideal_count(pair, s):
    """Number of generator orbits on the simple ideals of a semisimple s.

    Diagnostic only.  For compact semisimple s the commutant of ad(s) on s
    is spanned by the projections πᵢ onto its simple ideals, and each
    generator γ permutes them by conjugation, so the orbits are counted by
    the dimension of {P in the commutant : CP = PC for every generator's
    restriction C}.  That is one intersect_kernels call over Q, which
    never has to find the ideals themselves.
    """
    alg = pair.algebra
    if not is_bracket_closed(alg, s):
        raise ValueError("not a subalgebra")
    m = s.dim
    if m == 0:
        return 0
    B = s.basis
    ads = [nonzeros(restricted_operator(
               s, [alg.bracket(B[:, i], B[:, j]) for j in range(m)]))
           for i in range(m)]
    killing = fzeros(m, m)
    for i in range(m):
        for j in range(i, m):
            other = ads[j]
            acc = F0
            for (t, u), v in ads[i].items():
                w = other.get((u, t))
                if w is not None:
                    acc += v * w
            killing[i, j] = killing[j, i] = acc
    if rank(killing) != m:
        raise ValueError("subspace is not semisimple (degenerate Killing form)")
    gens = [nonzeros(restricted_operator(s, [g.dot(B[:, j]) for j in range(m)]))
            for g in pair.generators]
    ops = (commutant_operator(R, m) for R in ads + gens)
    return intersect_kernels(ops, m * m).dim
