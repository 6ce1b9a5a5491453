"""Relative Chevalley-Eilenberg cochains of a compact homogeneous pair.

Real cohomology of the quotient is computed from the complex of horizontal,
isotropy-invariant alternating forms on the ambient algebra.  Horizontal
k-forms are coordinatised on wedges F_J = F_{j_1} ^ ... ^ F_{j_k} of a basis
F_1..F_q of the annihilator of h in the dual of g, the monomial J held as an
int bitmask.  F is the annihilator's kernel basis, the identity on its free
rows, so the unit vectors w_j = e_{free[j]} span a complement W of h with
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

Every degree is built on orbit sums.  A turn is an automorphism of g that
preserves h and permutes the w_j up to sign, so F_c -> +-F_pi(c).  The
finite group Gamma the turns generate (_turns) permutes the F_J up to
sign; its invariants are spanned by the sums over the orbits whose
stabiliser acts trivially (linalg.signed_orbits), and the coordinates are
the averages Q_O = E F_r over Gamma, r a monomial of the orbit.  A turn
is exp((pi/2) ad Y) (linalg.quarter_turn), else exp(pi ad Y)
(linalg.half_turn_signs), or a generator.  Two kinds pass:

* first kind: each Lie generator Y of h with [Y, W] in W, read on its
  theta images, and each generator that permutes the w_j up to sign.
  These lie in H, and an invariant cochain f has theta(Y)f = 0, so
  exp(t theta(Y)) fixes f: the invariant spaces are those of the wedge;
* second kind: each basis vector Y of g that commutes with h and is fixed
  by every generator (every one for h = 0), unless a turn taken before
  maps one taken to +-Y (its turn is then a conjugate).  exp(t ad Y)
  fixes h and commutes with theta and the generators; on the relative
  complex theta(Y) = delta iota(Y) + iota(Y) delta, iota(Y) preserving
  it, so each such turn is 1 on cohomology, and averaging over them gives
  H(C^Gamma) = H(C) (Koszul 1950; Greub-Halperin-Vanstone vol. III):
  complex_dims are those of C^Gamma.

A turn commutes with delta (_check_turns), so delta Q_O = E delta F_r is
delta's column at r read on the orbit sums (linalg.on_orbits), and read
again at a second member of the orbit (_delta_on_orbits): a monomial of a
bad orbit adds nothing, one off the graded monomials is the row ~m,
which the images of an invariant basis must not reach.  theta(Y) is read
so when every turn fixes Y; another operator A takes A Q_O, the sum of
+-A F_m / |O| over the orbit (linalg.summed_on_orbits).  Gamma maps the
kernel of theta(Y) on its invariants to that of theta(gamma Y), so theta
is not imposed for a Y in the span of the images, under the generators
that are turns, of the Lie generators imposed before it.
The cochain space is the joint kernel of the theta operators and the
fixed space of the other generators, intersected one operator at a time
(intersect_kernels); the Y whose theta(Y) kills a cochain are a
subalgebra, so theta is built for h's Lie generators only
(liealg.lie_generators).  The images mapped back from their rows on the
next basis (the escape check) check the assembly.
Ranks are exact integer ranks, taken in increasing degree as one complex
(linalg.complex_ranks, which checks delta o delta = 0 on the restricted
maps: by the escape check, delta o delta on the invariant complex).

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
"""

from collections import namedtuple
from functools import partial
from itertools import accumulate, chain, combinations
from math import lcm

from .betti import BettiReport
from .liealg import int_field
from .linalg import (SparseMatrix, combination, complex_ranks, coordinates,
                     echelon_insert, half_turn_signs, intersect_kernels,
                     kernel_basis, nonzero, on_orbits, quarter_turn, rank,
                     signed_orbits, sparse_product, summed_on_orbits,
                     transpose)
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

    monomials[k] lists a monomial of each orbit sum of degree k, one per
    coordinate, as bitmasks.  bases[k] is the degree-k cochain space as a
    Subspace of those coordinates held in sparse columns, with None meaning
    all of them (no isotropy or generator constraints).  deltas[k] is scale
    times the differential from degree k to k+1 in those bases, a
    SparseMatrix; scale is D, the lcm of the denominators of the constants
    F_c([w_a, w_b]) on the unit test vectors (1 when they are integers).
    """


def _frame(pair):
    """The annihilator of h in g* as a kernel basis and its rows {k: {i:
    F_i[k]}}, so combination(rows, v) is {i: F_i(v)}; None for h = 0."""
    ann = kernel_basis(pair.h.columns, pair.algebra.n)
    return ann, transpose(ann.columns) if pair.h.columns else None


def _projected(rows, terms):
    """Images {1 << c: {(bits, below): F_c(v)}} of the ((bits, below), v)
    of terms: v a vector of g, bits the monomial it stands for and below
    the XOR of t - 1 over its bits t, so the parity of m & below is the
    sign of moving those bits into a monomial m."""
    images = {}
    for key, v in terms:
        for c, x in (combination(rows, v) if rows else v).items():
            images.setdefault(1 << c, {})[key] = x
    return images


def _frame_actions(pair, ann, rows):
    """Images of theta(Y) = -(. o ad Y) per Lie generator Y of h, whose
    value on w_j is F([w_j, Y]), and of f -> f o gamma per generator (a
    singular gamma is rejected, though gamma is never inverted)."""
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


def _turn(cols, m):
    """A's quarter-turn, else its half-turn as a signed permutation."""
    signs = None if (turn := quarter_turn(cols, m)) else half_turn_signs(
        cols, m)
    return list(enumerate(signs)) if signs else turn


def _turns(pair, ann):
    """(turns, thetas, others): the turns, on the frame, that generate
    Gamma; per Lie generator of h, None when its theta is not imposed, else
    whether every turn fixes it (a turn of Y fixes Z when [Y, Z] = 0); and
    the indices of the generators that are not turns."""
    alg, free, ys = pair.algebra, ann.free, pair.h_lie_generators
    gens, at = pair.generator_columns, {f: j for j, f in enumerate(ann.free)}
    ads = alg.ad_sparse()
    # per Lie generator Y the i with [e_i, Y] != 0, among ad e_k's supports
    aparts = [near if len(y) == 1 else {
        i for i in near if alg.bracket_sparse({i: 1}, y)}
        for y in ys for near in [set().union(*(ads[k] for k in y))]]
    apart = set().union(*aparts)

    def on_frame(turn):     # (k, s) per e_f as a turn of the w_j, or None
        out = [(at.get(k), s) for k, s in (turn[f] for f in free)]
        return None if any(k is None or s * s != 1 for k, s in out) else out
    turns, moved, others, taken, reached, acting = [], set(), [], [], set(), []
    for i, ad in enumerate(ads):
        if (i not in reached and i not in apart
                and all(g[i] == {i: 1} for g in gens)
                and (turn := _turn(ad, alg.n)) and (frame := turn if len(
                    free) == alg.n else on_frame(turn))):
            turns.append(frame)
            taken.append(turn)
            stack = [i, *reached]
            while stack:        # turn(e_k) = gamma turn(e_j) gamma^-1
                reached.add(j := stack.pop())
                stack += [k for t in taken if (k := t[j][0]) not in reached]
    for y, near in zip(ys, aparts):     # -ad Y on W, the columns [w_j, Y]
        cols = [alg.bracket_sparse({f: 1}, y) if f in near else {}
                for f in free]
        if (not (len(y) == 1 and y.keys() <= reached)
                and all(col.keys() <= at.keys() for col in cols)
                and (turn := _turn([{at[k]: x for k, x in col.items()}
                                    for col in cols], len(free)))):
            turns.append(turn)
            moved.update(j for j, z in enumerate(ys) if near.intersection(
                z) and alg.bracket_sparse(y, z))
    for t, g in enumerate(gens):
        if turn := on_frame([next(iter(col.items())) if len(col) == 1
                             else (None, 0) for col in g]):
            turns.append(turn)
            acting.append(g)
            moved.update(j for j, z in enumerate(ys) if combination(g, z) != z)
        else:
            others.append(t)
    echelon, thetas = {}, []
    for j, y in enumerate(ys):
        thetas.append(None if echelon_insert(echelon, y) is None
                      else j not in moved)
        todo = [y] if thetas[-1] is not None else []
        while todo:
            v = todo.pop()
            todo += [w for g in acting if echelon_insert(
                echelon, w := combination(g, v)) is not None]
    return turns, thetas, others


def _check_turns(turns, table):
    """A RuntimeError unless turn(delta F_c) = delta(turn F_c) for every
    turn and c: then turn o delta o turn^-1, a derivation, is delta."""
    entries = {(c.bit_length() - 1, (bits & -bits).bit_length() - 1,
                bits.bit_length() - 1): v
               for c, col in table.items() for (bits, _), v in col.items()}
    for turn in turns:
        if entries != {(k, ka, kb) if ka < kb else (k, kb, ka):
                       s * sa * sb * v if ka < kb else -s * sa * sb * v
                       for (c, a, b), v in entries.items() for (k, s), (
                           ka, sa), (kb, sb) in [(turn[c], turn[a], turn[b])]}:
            raise RuntimeError("a turn does not commute with the "
                               "differential")


def _derivation_column(images, mon):
    """Column F_mon of the derivation F_c -> images[c], as a {monomial:
    value} dict.

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
                odd = (rest & ((c - 1) ^ below)).bit_count() % 2
                row = rest | bits
                acc[row] = acc.get(row, 0) + (-v if odd else v)
    return nonzero(acc)


def _delta_on_orbits(table, orbit, index):
    """delta Q_O = E delta F_r on the orbit sums of index, r = orbit[0][0],
    checked against (-1)^odd E delta F_m at a second member (m, odd)."""
    col = on_orbits(_derivation_column(table, orbit[0][0]), index)
    for m, odd in orbit[1:2]:
        if on_orbits(_derivation_column(table, m), index) != (
                {r: -v for r, v in col.items()} if odd else col):
            raise RuntimeError("the differential differs on two members "
                               "of an orbit")
    return col


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


def _invariant_space(theta_mats, thetas, gens, orbits):
    """Invariant coordinates of one degree, on its orbit sums, as a sparse
    Subspace, or None for all of them."""
    index, reps, members = orbits
    if not (ops := [(t, fixed) for t, fixed in zip(theta_mats, thetas)
                    if fixed is not None]) and not gens:
        return None
    # lazily built, so no operator is assembled once the space is zero
    return intersect_kernels(chain(
        ({p: col for p, mon in enumerate(reps) if (col := on_orbits(
            _derivation_column(t, mon), index))} if fixed
         else summed_on_orbits(members, partial(_derivation_column, t))
         for t, fixed in ops),
        (summed_on_orbits(members, lambda mon, a=a, m=m: nonzero(
            {**(col := _wedge_column(a, mon, m)), mon: col.get(mon, 0) - 1}))
         for a, m in gens)), len(reps))


def _restrict_delta(images, basis_next, nrows, ncols):
    """The images in the next basis, read on its free rows and checked by
    mapping them back (coordinates); a row off the graded ones fails."""
    if basis_next is None:
        if any(min(col) < 0 for col in images.values()):
            raise RuntimeError("an operator leaves the graded monomials")
        return SparseMatrix(images, nrows, ncols)
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
    rule, else a ValueError.
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
    table, scale = _structure_table(alg, ann, rows)
    turns, thetas, others = _turns(pair, ann)
    _check_turns(turns, table)
    gens = [(gen_mats[t], {0: {0: 1}}) for t in others]  # memo: 1 = F_0

    orbits = signed_orbits(q, turns, top + 1)
    bases = [_invariant_space(theta_mats, thetas, gens, o) for o in orbits]
    dims = [len(o[1]) if b is None else b.dim for o, b in zip(orbits, bases)]
    if dims[0] != 1:
        raise RuntimeError("degree-0 cochain space is not one-dimensional; "
                           "cochain assembly is inconsistent")

    # each op is D * delta_k, its columns built only where the basis reaches
    monomials, deltas = [reps for _, reps, _ in orbits], []
    for k, basis in enumerate(bases[:top + 1]):
        reach = (range(dims[k]) if basis is None
                 else {r for col in basis.columns for r in col})
        op = {j: col for j in reach if (col := _delta_on_orbits(
            table, orbits[k][2][j], orbits[k + 1][0]))}
        images = op if basis is None else sparse_product(op, basis.columns)
        deltas.append(_restrict_delta(images, bases[k + 1], dims[k + 1],
                                      dims[k]))
    return RelativeComplex(q, top, dims, bases, deltas, scale, monomials)


def _blocks(pair):
    """The coordinate sets of g on which the pair splits, sorted: the
    _components of the groups the module docstring names."""
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
        it = iter(group)
        for first in it:        # its root takes the others' roots
            first = root(first)
            for i in it:
                parent[root(i)] = first
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
