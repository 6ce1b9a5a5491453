"""Relative Chevalley-Eilenberg cochains of a compact homogeneous pair.

Real cohomology of the quotient is computed from the complex of horizontal,
isotropy-invariant alternating forms on the ambient algebra.  Horizontal
k-forms are coordinatised on wedges F_J = F_{j_1} ^ ... ^ F_{j_k} of a basis
F_1..F_q of the annihilator of h in the dual of g, the monomial J held as an
int bitmask.  F is the annihilator's kernel basis, the identity on its free
rows, so the unit vectors w_j = e_{free[j]} are test vectors with
F_i(w_j) = delta_ij, and the coefficient of a horizontal form on F_J is its
value on (w_{j_1}, ...).  One projection (_projected) reads each map below
through F's columns as the images of the F_c, no Gram matrix solved, and
one rule (_derivation_column) builds theta(Y) and delta from their images.
The operators are {col: column} matrices of linalg's encoding:

* the infinitesimal isotropy action, (theta(Y)f)(x) = -f([Y, x]) on
  covectors, extended to wedges as a derivation;
* the component-generator action, f -> f o gamma on covectors, extended
  multiplicatively.  Its fixed space in every degree is that of
  f -> f o gamma^{-1}, so gamma is never inverted;
* the differential, the derivation with delta(F_c) = -sum_{a<b}
  F_c([w_a, w_b]) F_a ^ F_b, its minus sign held in its images.  These are
  cleared to integers once with their common denominator D, so the complex
  holds D * delta in every degree: same kernels, images and ranks, in ints.

For an invariant horizontal form the values (delta f)(w_I), theta and the
generator entries do not depend on the complement chosen for h (moving a
w_j by an element of h changes none of them), so any test vectors dual to F
give the same invariant complex; the unit vectors only make D small.

Every degree is built on graded monomials only: the F_J fixed by the
half-turns sigma = exp(pi ad Y) that _half_turn_masks accepts, each a sign
matrix on the frame, so it scales F_c by +-1 and F_J by
(-1)^popcount(J & S), S the frame positions it negates.
linalg.half_turn_signs tests that exp(pi A) is a sign matrix: each e_j in
ker(A^2 + 1), where it is -1, or in ker A(A^2 + 4), where it is 1,
kernels that split the space exactly when A(A^2 + 1)(A^2 + 4) = 0.  Two
kinds of Y pass:

* each Lie generator Y of h with exp(pi ad Y) a sign matrix on g/h in the
  w_j, read off Y's theta images.  sigma lies in H^0, and an invariant
  cochain f has theta(Y)f = 0, so exp(pi theta(Y))f = f: every invariant
  cochain lies on the graded monomials, whether or not Y commutes with h
  and whatever the generators do, and the invariant spaces are those of
  the whole wedge.  theta(X) and the generators need not commute with
  this sigma, so their columns take rows off the graded monomials, the
  row of such a J being ~J;
* each basis vector Y of g that commutes with h and is fixed by every
  generator, with exp(pi ad Y) diagonal on g (for h = 0 every basis vector
  is a candidate).  sigma fixes h and the w_j and commutes with theta, the
  generators and delta.  On the relative complex theta(Y) = delta iota(Y)
  + iota(Y) delta, iota(Y) preserving it, so sigma* = exp(pi theta(Y)) is
  1 on cohomology, and averaging over these half-turns gives
  H(C^Gamma) = H(C) (Koszul 1950; Greub-Halperin-Vanstone vol. III).
  complex_dims are those of C^Gamma.  Only the span of the masks grades,
  and it lies in the space of sign patterns of diagonal automorphisms of
  g of determinant 1, one GF(2) kernel of the table (linalg.xor_echelon):
  once the masks reach its rank no basis vector is tested further.  That
  stops so(5) after 4 of its 10 and su(3) after 2 of its 8.

delta maps invariant cochains to invariant cochains, so an image of an
invariant basis with a row off the graded monomials is a RuntimeError.
A delta column of one monomial may have such a row: delta is built on the
span W of the w_j, and a half-turn of the first kind is diagonal on g/h
but need not map W into itself.

The degree-k cochain space is the joint kernel of the theta operators and
the fixed space of the generator actions.  theta is a representation of h,
so the Y whose theta(Y) kills a cochain are a subalgebra and theta is built
for a Lie generating set of h only (liealg.lie_generators).  The operators
are intersected one at a time through nonzeros (intersect_kernels); the
basis is the identity on a set of free rows.  delta(F_J) is built only
for the J the invariant basis reaches.  The images mapped back from their
row selection on the next basis (the differential must not escape the
invariant space) are a consistency check on the assembly, not an
assumption.  With no constraints (trivial isotropy, no generators) the
images are the delta columns themselves.
Ranks are exact integer ranks, taken in increasing degree as one complex
(linalg.complex_ranks): the echelon of delta_k's columns has distinct
leading rows P_k, and as delta o delta = 0 (checked there on the restricted
maps, which the escape check makes delta o delta on the invariant complex)
delta_{k+1} is ranked on its columns off P_k only.

betti_ce splits the pair first.  _blocks joins, by one union-find pass,
the coordinates of each simple factor, of the support of each h basis
column, and of the columns a generator moves together with their images;
as validate_pair checks, center and cross-factor brackets vanish and
generators fix the center and preserve each factor, so each block is an
ideal, h is the sum of its parts in the blocks and a generator is the
identity off one block.  Each h_i and gamma then acts on one tensor
factor of the wedge algebra, ker(A x 1) = ker A x V, so the invariant
complex is the tensor product of the blocks' complexes and delta a
derivation of it.  Over Q, Kunneth multiplies their Poincare polynomials,
as it does the complex dimensions, and the ranks follow from
dim_k - b_k = r_k + r_{k-1}.  A pair of one block is passed on as itself.
A block's algebra is the ideal the pair's algebra holds for its
coordinates (LieAlgebra.ideal): its table read off the validated one
once, and for a block that is one factor the very algebra, ad_sparse()
included, that validate's factor checks built.
"""

from collections import namedtuple
from itertools import accumulate, chain, combinations
from math import lcm

from .betti import BettiReport
from .liealg import int_field
from .linalg import (SparseMatrix, combination, complex_ranks,
                     coordinates, graded_monomials, half_turn_signs,
                     intersect_kernels, kernel_basis, minus_identity,
                     nonzero, rank, sparse_product, transpose, xor_echelon)
from .pairs import HomogeneousPair

DEFAULT_SIZE_CAP = 14


def _non_negative(value, field):
    """An int_field that is not negative, else a ValueError naming the
    field."""
    try:
        number = int_field(value, field)
    except ValueError:
        number = -1
    if number < 0:
        raise ValueError("%s must be a non-negative integer, not %r"
                         % (field, value))
    return number


def _effective_size_cap(size_cap, q):
    """size_cap, else DEFAULT_SIZE_CAP; a ValueError when the quotient
    dimension q exceeds it."""
    cap = (DEFAULT_SIZE_CAP if size_cap is None
           else _non_negative(size_cap, "size_cap"))
    if q > cap:
        raise ValueError(
            "quotient dimension %d exceeds the size cap %d; pass size_cap "
            "(--size-cap) to go further" % (q, cap))
    return cap


class RelativeComplex(namedtuple("RelativeComplex", [
        "quotient_dim", "max_degree", "dims", "bases", "deltas", "scale",
        "monomials"])):
    """Invariant cochain spaces and differentials, degrees 0..max_degree+1.

    monomials[k] lists the graded monomials of degree k as bitmasks, one
    per wedge coordinate.  bases[k] is the degree-k cochain space as a
    Subspace of those coordinates held in sparse columns, with None meaning
    all of them (no isotropy or generator constraints).  deltas[k] is scale
    times the differential from degree k to k+1 in those bases, a
    SparseMatrix; scale is D, the lcm of the denominators of the constants
    F_c([w_a, w_b]) on the unit test vectors (1 when they are integers, as
    for h = 0).
    """


def _frame(pair):
    """The annihilator of h in g* as a kernel basis, plus its rows as
    {k: {i: F_i[k]}}, so combination(rows, v) is {i: F_i(v)}; the test
    vector w_j is the unit vector at free[j]."""
    ann = kernel_basis(pair.h.columns, pair.algebra.n)
    return ann, transpose(ann.columns)


def _projected(rows, terms):
    """Images {1 << c: {(bits, below): F_c(v)}} of the ((bits, below), v)
    of terms: v a vector of g, bits the monomial it stands for and below
    the XOR of t - 1 over its bits t, so the parity of m & below is the
    sign of moving those bits into a monomial m."""
    images = {}
    for key, v in terms:
        for c, x in combination(rows, v).items():
            images.setdefault(1 << c, {})[key] = x
    return images


def _frame_actions(pair, ann, rows):
    """Images of theta(Y) = -(. o ad Y) per Lie generator Y of h, whose
    value on w_j is F([w_j, Y]), and of f -> f o gamma per generator.

    The fixed space of f -> f o gamma on every wedge power is that of
    f -> f o gamma^{-1}, so gamma is never inverted; a singular gamma is
    still rejected.
    """
    alg = pair.algebra
    for gcols in pair.generator_columns:
        if rank(gcols, alg.n) != alg.n:
            raise ValueError("generator matrix is singular")
    units = [(1 << j, (1 << j) - 1) for j in range(len(ann.free))]
    return ([_projected(rows, zip(units, [alg.bracket_sparse({f: 1}, y)
                                          for f in ann.free]))
             for y in pair.h_lie_generators],
            [_projected(rows, zip(units, [gcols[f] for f in ann.free]))
             for gcols in pair.generator_columns])


def _structure_table(alg, ann, rows):
    """(images of delta, D): {1 << c: {(bits, below): -D * F_c([w_a, w_b])}}
    in ints, bits those of a < b, [w_a, w_b] the table entry of (free[a],
    free[b]) and D the lcm of the denominators of the F_c([w_a, w_b])."""
    free = ann.free
    table = _projected(rows, [
        ((1 << a | 1 << b, (1 << b) - (1 << a)), {k: -c for k, c in terms})
        for a, b in combinations(range(len(free)), 2)
        if (terms := alg.table.get((free[a], free[b])))])
    scale = lcm(*(x.denominator for col in table.values()
                  for x in col.values() if type(x) is not int))
    if scale > 1:
        table = {c: {key: int(x * scale) for key, x in col.items()}
                 for c, col in table.items()}
    return table, scale


def _half_turn_masks(pair, ann, theta_mats):
    """Frame masks S, bit j set where sigma negates F_j, of the half-turns
    sigma = exp(pi ad Y) that are sign matrices on the frame.

    Y is each basis vector e_i of g that commutes with h's Lie generators,
    is fixed by every component generator and has exp(pi ad e_i) diagonal
    on g (read on ad_sparse()), its mask read at the free rows; and Y is
    each other Lie generator of h, with exp(pi ad Y) diagonal on g/h in the
    w_j, read on its theta images F_c([w_j, Y]), the columns of -ad Y on
    g/h.

    Only the span of the masks grades, and the e_i stop being tested once
    theirs reaches its bound.  Such a sigma is a diagonal automorphism of
    g, so its signs satisfy eps_k = eps_i eps_j wherever c_ij^k != 0, and
    det exp(pi ad e_i) = exp(pi tr ad e_i) > 0, so it negates an even
    number of the e_j; it fixes h, so it negates free rows only, and its
    masks have the rank of its signs on g.  Their span lies in the space
    those conditions cut out, whose dimension is the bound.
    """
    alg = pair.algebra
    bound = alg.n - len(xor_echelon(
        {1 << i ^ 1 << j ^ 1 << k for (i, j), terms in alg.table.items()
         for k, _ in terms} | {(1 << alg.n) - 1}))
    masks, accepted = [], []
    for i, ad in enumerate(alg.ad_sparse()):
        if len(xor_echelon(masks)) == bound:
            break
        if (all(g[i] == {i: 1} for g in pair.generator_columns)
                and not any(alg.bracket_sparse({i: 1}, y)
                            for y in pair.h_lie_generators)
                and (signs := half_turn_signs(ad, alg.n))):
            masks.append(sum(1 << j for j, f in enumerate(ann.free)
                             if signs[f] < 0))
            accepted.append({i: 1})
    for y, theta in zip(pair.h_lie_generators, theta_mats):
        if y in accepted:       # its sigma is the one accepted above
            continue
        cols = {}
        for c, image in theta.items():
            for (bits, _), x in image.items():
                cols.setdefault(bits.bit_length() - 1, {})[
                    c.bit_length() - 1] = x
        if signs := half_turn_signs(cols, ann.dim):
            masks.append(sum(1 << j for j, x in enumerate(signs) if x < 0))
    return masks


class _Graded(dict):
    """Positions of one degree's graded monomials; any other monomial m
    is the row ~m, outside them, and sets missed."""
    missed = False

    def __missing__(self, mon):
        self.missed = True
        return ~mon


def _derivation_column(images, mon, index):
    """Column F_mon of the derivation F_c -> images[c], as a {row: value}
    dict on the positions of index.

    The term of c is (-1)^p images[c] ^ F_{mon - c}, p the bits of mon below
    c (F_c moved to the front), whether images[c] holds 1-forms (theta) or
    2-forms (delta); moving an image's bits into mon - c crosses
    (mon - c) & below.
    """
    acc, bits_left = {}, mon
    while bits_left:
        c = bits_left & -bits_left
        bits_left ^= c
        rest = mon ^ c
        for (bits, below), v in images.get(c, {}).items():
            if not rest & bits:
                row = index[rest | bits]
                odd = (rest & ((c - 1) ^ below)).bit_count() % 2
                acc[row] = acc.get(row, 0) + (-v if odd else v)
    return nonzero(acc)


def _wedge_column(action, mon, memo):
    """Coordinates of the wedge of action-columns over mon, as {mask: value}."""
    if mon not in memo:
        top = 1 << (mon.bit_length() - 1)
        prev = _wedge_column(action, mon ^ top, memo)
        col = {}
        for (t, _), c in action.get(top, {}).items():
            for part, v in prev.items():
                if not part & t:
                    w = -v * c if (part & -t).bit_count() % 2 else v * c
                    col[part | t] = col.get(part | t, 0) + w
        memo[mon] = nonzero(col)
    return memo[mon]


def _fixed_op(action, index, memo):
    """Sparse matrix of (gamma* - 1) on wedge coordinates of one degree."""
    return minus_identity([
        {index[key]: v for key, v in _wedge_column(action, mon, memo).items()}
        for mon in index], len(index))


def _invariant_space(theta_mats, gen_mats, gen_memos, index):
    """Invariant degree-k coordinates as a sparse Subspace, or None for all."""
    if not theta_mats and not gen_mats:
        return None
    # lazily built, so no operator is assembled once the space is zero
    ops = chain(({j: col for j, mon in enumerate(index)
                  if (col := _derivation_column(t, mon, index))}
                 for t in theta_mats),
                (_fixed_op(a, index, m) for a, m in zip(gen_mats, gen_memos)))
    return intersect_kernels(ops, len(index))


def _restrict_delta(images, basis_next, index_next, ncols):
    """Coordinates of the images in the next invariant basis.

    A kernel basis is the identity on its free rows, so the coordinates are
    the image entries on those rows; mapping them back through the basis
    must then reproduce every image exactly, which a row outside the
    graded monomials does not: the images are those of invariant cochains.
    With no basis there are no theta or generator columns, so a row of
    index_next was missed by delta alone.
    """
    if basis_next is None:
        if index_next.missed:
            raise RuntimeError("an operator leaves the graded monomials")
        return SparseMatrix(images, len(index_next), ncols)
    try:
        coords = coordinates(basis_next, list(images.values()))
    except ValueError:
        raise RuntimeError("invariance projection inconsistent: the "
                           "differential escapes the invariant cochain "
                           "space") from None
    return SparseMatrix({j: c for j, c in zip(images, coords) if c},
                        basis_next.dim, ncols)


def relative_complex(pair, max_degree=None, size_cap=None, validate=True):
    """Assemble the invariant cochain complex through max_degree (+1 spaces).

    Raises ValueError when the quotient dimension exceeds the size cap
    (default 14); pass size_cap to override it for a single call.
    max_degree and size_cap are non-negative integers by liealg.int_field's
    rule, else a ValueError.  delta o delta = 0 is checked when the complex
    is ranked.
    """
    if validate:
        pair.validation.ensure()
    alg = pair.algebra
    q = alg.n - pair.h.dim
    _effective_size_cap(size_cap, q)
    top = q if max_degree is None else min(
        _non_negative(max_degree, "max_degree"), q)
    ann, rows = _frame(pair)
    theta_mats, gen_mats = _frame_actions(pair, ann, rows)
    gen_memos = [{0: {0: 1}} for _ in gen_mats]   # the empty wedge is 1
    table, scale = _structure_table(alg, ann, rows)

    monomials = graded_monomials(
        q, _half_turn_masks(pair, ann, theta_mats), top + 1)
    indexes, bases, dims = [], [], []
    for level in monomials:
        idx = _Graded((mon, pos) for pos, mon in enumerate(level))
        basis = _invariant_space(theta_mats, gen_mats, gen_memos, idx)
        indexes.append(idx)
        bases.append(basis)
        dims.append(len(idx) if basis is None else basis.dim)
    if dims[0] != 1:
        raise RuntimeError("degree-0 cochain space is not one-dimensional; "
                           "cochain assembly is inconsistent")

    # each op is D * delta_k, its columns built only where the basis reaches
    deltas = []
    for k, basis in enumerate(bases[:top + 1]):
        reach = (range(dims[k]) if basis is None
                 else {r for col in basis.columns for r in col})
        op = {j: col for j in reach if (col := _derivation_column(
            table, monomials[k][j], indexes[k + 1]))}
        images = op if basis is None else sparse_product(op, basis.columns)
        deltas.append(_restrict_delta(images, bases[k + 1], indexes[k + 1],
                                      dims[k]))
    return RelativeComplex(q, top, dims, bases, deltas, scale, monomials)


def _blocks(pair):
    """The coordinate sets of g on which the pair splits, sorted: the
    components (_components) of the overlapping sets given by each simple
    factor, the support of each h basis column, and the columns a
    generator moves (gamma e_j != e_j) together with the supports of
    their images."""
    groups = [range(start, stop) for _, start, stop in pair.algebra.factors]
    groups += [col.keys() for col in pair.h.columns]
    for gcols in pair.generator_columns:
        moved = [j for j, col in enumerate(gcols) if col != {j: 1}]
        groups.append(set(moved).union(*(gcols[j] for j in moved)))
    return _components(pair.algebra.n, groups)


def _components(n, groups):
    """The classes of 0..n-1 that the groups of coordinates join, each a
    sorted list, in order: one union-find pass over the groups, each
    joined under its first member's root."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i
    for group in groups:
        first = None
        for i in group:
            i = root(i)
            if first is None:
                first = i
            elif i != first:
                parent[i] = first
    classes = {}
    for i in range(n):
        classes.setdefault(root(i), []).append(i)
    return sorted(classes.values())


def _block_pair(pair, coords):
    """The pair on the ideal with basis coords, a block of _blocks: the
    ideal as the algebra shares it (LieAlgebra.ideal), and the h columns
    and the generators that move it, restricted to it (their columns at
    coords lie in the block, as _blocks merges them)."""
    alg = pair.algebra
    if len(coords) == alg.n:
        return pair
    at = {c: i for i, c in enumerate(coords)}
    h = [{at[i]: x for i, x in col.items()} for col in pair.h.columns
         if col.keys() <= at.keys()]
    gens = [[{at[i]: x for i, x in gcols[j].items()} for j in coords]
            for gcols in pair.generator_columns
            if any(gcols[j] != {j: 1} for j in coords)]
    return HomogeneousPair(alg.ideal(coords), h, gens)


def _times(a, b, top):
    """The product of the polynomials a and b, cut after degree top."""
    out = [0] * (min(len(a) + len(b) - 2, top) + 1)
    for i, x in enumerate(a[:len(out)]):
        for j, y in enumerate(b[:len(out) - i]):
            out[i + j] += x * y
    return out


def betti_ce(pair, max_degree=None, size_cap=None, validate=True):
    """Betti numbers from the invariant cochain complex (exact ranks),
    assembled and ranked block by block."""
    if validate:
        pair.validation.ensure()
    q = pair.algebra.n - pair.h.dim
    cap = _effective_size_cap(size_cap, q)
    top = q if max_degree is None else min(
        _non_negative(max_degree, "max_degree"), q)
    betti, dims, graded = [1], [1], [1]
    for coords in _blocks(pair):
        cx = relative_complex(_block_pair(pair, coords), max_degree=top,
                              size_cap=cap, validate=False)
        ranks = complex_ranks(cx.deltas)
        block = [d - r - s for d, r, s in zip(cx.dims, ranks, [0] + ranks)]
        if block[0] != 1:
            raise RuntimeError("degree-0 cohomology is not one-dimensional; "
                               "the quotient must be connected")
        betti = _times(betti, block, top)
        dims = _times(dims, cx.dims, top)
        graded = _times(graded, list(map(len, cx.monomials)), top)
    # dim_k - b_k = r_k + r_{k-1}, with r_k the rank of delta_k
    ranks = list(accumulate((d - b for d, b in zip(dims, betti)),
                            lambda r, x: x - r))
    return BettiReport(
        betti, "ce",
        intermediates={"quotient_dim": q, "max_degree": top},
        diagnostics={"complex_dims": dims, "graded_monomials": graded,
                     "ranks": ranks})


def poincare_check(report, dim_quotient):
    """Whether the full Betti vector satisfies b_k = b_{dim-k}.

    Meaningful for connected isotropy (no component generators) with the
    complex computed through the top degree.
    """
    betti = report.betti
    if len(betti) != dim_quotient + 1:
        raise ValueError("Poincare check needs the full cohomology vector "
                         "(max degree %d)" % dim_quotient)
    return all(betti[k] == betti[dim_quotient - k]
               for k in range(dim_quotient + 1))
