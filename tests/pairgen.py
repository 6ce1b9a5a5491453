"""Seeded random homogeneous pairs for the cross-method property suite.

Pairs are drawn from catalog ambient algebras of total dimension <= 12 with
a subalgebra from a structured menu: zero, the full algebra, a declared
factor block, a rational line inside a factor or the center, a diagonal
su(2) across two 3-dimensional factors (optionally twisted by a rational
rotation), the so(4) block of so(5), and the 2-torus of su(3).  Optional
order-2 generators are signed-permutation matrices: adjoint images of
half-turn rotations acting by sign patterns on a su(2) factor, and the
reflection that swaps the two simple ideals of the so(4) block inside
so(5).  Every pair returned by suite() passes validate_pair.

commutant_by_every_vector is the dense reference count of generator
orbits on the simple ideals of a semisimple subalgebra, which the tests
compare with dim S²(s*)^H, and factor_commutant the count of a declared
factor's simple ideals, which they compare with the Schur certificate and
the invariant-form count of liealg.validate.  Both solve for the
commutant in (dim)² unknowns (commutant_operator).
schur_certified_by_two_centralizers is the reference Schur certificate,
which builds z(v) and z(z(v)) in full.
center_and_derived_by_every_bracket is the dense reference for z(s) and
[s,s], from all dim(s)(dim(s) − 1)/2 brackets of a subalgebra's basis,
which the tests compare with decompose's reading of the ad(h) table.
intersect is the reference intersection of two subspaces, which the tests
compare with linalg.kernel_in.
clear_row_by_copy, half_turn_signs_on_every_column and
derivation_column_over_every_image are the plain forms of
linalg._clear_row (a copy of every row), linalg.half_turn_signs (A^2 e_j
and A^3 e_j for every e_j, zero columns too) and ce._derivation_column
(every image tested against the monomial), which the tests compare with
the forms that skip the work.
blocks_by_merging, graded_monomials_by_sorting, block_pair_by_rebuilding
and half_turn_masks_on_every_candidate are the forms ce._blocks,
linalg.graded_monomials, ce._block_pair and ce._half_turn_masks replaced:
each group merged with every class it meets, every sum of the perp
vectors sorted by its reversed bits, the block table pushed through
LieAlgebra(...) again, and every basis half-turn tested.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import xor

from liecoh.catalog import pair_from_name
from liecoh.invariant_forms import action_coordinates, ad_coordinates
from liecoh.liealg import LieAlgebra, _closure_dim
from liecoh.linalg import (Subspace, combination, half_turn_signs,
                           intersect_kernels, kernel_basis, nonzero, rat_str,
                           transpose)
from liecoh.pairs import HomogeneousPair, validate_pair

F = Fraction

AMBIENTS = [
    "torus:2", "torus:3", "su:2", "su:3", "so:5", "sp:2",
    "su:2+su:2", "torus:2+su:2", "su:2+su:3", "su:2+su:2+su:2",
    "torus:1+su:3", "so:5+torus:1", "torus:1+su:2",
]

# rational rotations: automorphisms of the cyclic su(2) basis
_ROTATIONS = [
    [[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]],
    [[1, 0, 0], [0, F(5, 13), F(-12, 13)], [0, F(12, 13), F(5, 13)]],
    [[F(8, 17), 0, F(15, 17)], [0, 1, 0], [F(-15, 17), 0, F(8, 17)]],
]

# adjoint images of the half-turn rotations about each su(2) axis
_SIGN_PATTERNS = [(1, -1, -1), (-1, 1, -1), (-1, -1, 1)]

_LINE_COEFFS = [-2, -1, 1, 1, 2, F(1, 2), F(-3, 2)]

# lex-pair positions of the so(4) block inside the so(5) coordinate order
_SO4_IN_SO5 = [
    idx for idx, (i, j) in enumerate(combinations(range(5), 2)) if j <= 3]


def _unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return v


def eye(n):
    """The n x n identity as nested rows."""
    return [_unit(n, i) for i in range(n)]


def _three_dim_factors(alg):
    return [start for _, start, stop in alg.factors if stop - start == 3]


def _so5_factors(alg):
    return [start for name, start, stop in alg.factors
            if name == "so(5)" and stop - start == 10]


def _su3_factors(alg):
    return [start for name, start, stop in alg.factors
            if name == "su(3)" and stop - start == 8]


def _random_line(rng, n, lo, hi):
    v = [F(0)] * n
    picked = rng.sample(range(lo, hi), min(hi - lo, rng.choice([1, 2, 2, 3])))
    for i in picked:
        v[i] = F(rng.choice(_LINE_COEFFS))
    return v


def so5_swap_generator(alg, start):
    """Ad of diag(-1,1,1,1,-1): swaps the two simple ideals of so(4) ⊂ so(5)."""
    eps = [-1, 1, 1, 1, -1]
    gen = eye(alg.n)
    for idx, (i, j) in enumerate(combinations(range(5), 2)):
        gen[start + idx][start + idx] = F(eps[i] * eps[j])
    return gen


def su2_sign_generator(alg, start, pattern):
    """Ad of a half-turn: the given +-1 pattern on one su(2) block."""
    gen = eye(alg.n)
    for a in range(3):
        gen[start + a][start + a] = F(pattern[a])
    return gen


def rp4_pair():
    """so(5) / so(4) with the ideal-swapping generator (real projective 4-space)."""
    base = pair_from_name("sphere:4")
    swap = so5_swap_generator(base.algebra, 0)      # a diagonal matrix
    return HomogeneousPair(base.algebra, base.h.columns,
                           [[{t: row[t]} for t, row in enumerate(swap)]])


def twisted_diagonal_pair(rotation_index=0):
    """Diagonal su(2) in su(2)+su(2), second leg twisted by a rational rotation."""
    base = pair_from_name("su:2+su:2")
    R = _ROTATIONS[rotation_index]
    vecs = []
    for i in range(3):
        v = _unit(6, i)
        for a in range(3):
            v[3 + a] = R[a][i]
        vecs.append(v)
    return HomogeneousPair.from_vectors(base.algebra, vecs)


def su_torus_normalizer(n):
    """SU(n)/N(T), N(T) the normalizer of the diagonal torus: h is the
    n - 1 diagonal basis vectors i(E_jj - E_j+1,j+1) of su:n, and there is
    one component generator per adjacent transposition (k, k+1), Ad of its
    permutation matrix.  Conjugation maps E_ab to E_sa,sb, so the generator
    is an integer matrix in the catalog basis: it permutes the real parts
    E_jk - E_kj up to sign and the imaginary parts i(E_jk + E_kj), and
    sends i(E_jj - E_j+1,j+1) to a signed sum of adjacent diagonal vectors.
    Rationally G/N(T) is a point: H*(SU(n)/T)^W = Q in degree 0."""
    alg = pair_from_name("su:%d" % n).algebra
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    at = {p: n - 1 + 2 * t for t, p in enumerate(pairs)}
    gens = []
    for k in range(n - 1):
        s = list(range(n))
        s[k], s[k + 1] = k + 1, k
        gen = [[F(0)] * alg.n for _ in range(alg.n)]
        for j in range(n - 1):
            # i E_aa - i E_bb = +- the sum of the diagonal vectors between
            a, b = s[j], s[j + 1]
            for t in range(min(a, b), max(a, b)):
                gen[t][j] = F(1 if a < b else -1)
        for (j, l), col in at.items():
            a, b = s[j], s[l]
            row = at[(min(a, b), max(a, b))]
            gen[row][col] = F(1 if a < b else -1)
            gen[row + 1][col + 1] = F(1)
        gens.append(gen)
    return HomogeneousPair.from_vectors(
        alg, [_unit(alg.n, j) for j in range(n - 1)], gens)


def sheared(pair, a, b):
    """pair in the basis of g with e_a replaced by e_a + e_b: with
    A = 1 + E_ba, the structure constants become A^-1 [A x, A y], the
    subalgebra basis A^-1 h and each generator A^-1 gamma A."""
    alg, n = pair.algebra, pair.algebra.n

    def back(v):
        """A^-1 v for a sparse vector v."""
        out = dict(v)
        out[b] = out.get(b, 0) - out.get(a, 0)
        return {r: x for r, x in out.items() if x}
    cols = [{j: F(1), b: F(1)} if j == a else {j: F(1)} for j in range(n)]
    table = {(i, j): sorted(w.items()) for i in range(n)
             for j in range(i + 1, n)
             if (w := back(alg.bracket_sparse(cols[i], cols[j])))}
    moved = LieAlgebra(alg.l, [(name, stop - start)
                               for name, start, stop in alg.factors], table)
    return HomogeneousPair(
        moved, [back(col) for col in pair.h.columns],
        [[back(combination(gcols, col)) for col in cols]
         for gcols in pair.generator_columns])


def commutant_operator(columns, m, start):
    """Sparse columns of P -> PR - RP on m x m matrices P.

    R is given by its columns, with rows and columns numbered from start;
    P[a, b] is the coordinate a*m + b.  The kernel of the operator is
    {P : PR = RP}.
    """
    op, diag = {}, {}
    for t, col in (columns.items() if isinstance(columns, dict)
                   else enumerate(columns)):
        t -= start
        for b, v in col.items():
            b -= start
            if b == t:
                diag[b] = v
                continue
            # (PR)[a, t] picks up P[a, b] R[b, t] and (RP)[b, a] picks up
            # R[b, t] P[t, a] for every a; for b != t no two of these
            # writes hit one entry
            for a in range(m):
                op.setdefault(a * m + b, {})[a * m + t] = v
                op.setdefault(t * m + a, {})[b * m + a] = -v
    # the diagonal of R puts R[b, b] - R[a, a] on P[a, b]'s own row
    for a in range(m) if diag else ():
        for b in range(m):
            if x := diag.get(b, 0) - diag.get(a, 0):
                op.setdefault(a * m + b, {})[a * m + b] = x
    return op


def commutant_by_every_vector(pair, s):
    """dim of {P on s : P∘R = R∘P for R = ad x|s, x over every basis
    vector of s, and for R each generator's restriction}.  For compact
    semisimple s the commutant of ad(s) is spanned by the projections onto
    its simple ideals, which the generators permute, so this counts their
    orbits."""
    ops = [ad_coordinates(pair.algebra, s, x) for x in s.columns]
    ops += [action_coordinates(gcols, s) for gcols in pair.generator_columns]
    return intersect_kernels([commutant_operator(R, s.dim, 0) for R in ops],
                             s.dim * s.dim).dim


def factor_commutant(alg, start, stop):
    """dim of {P on the factor : P∘ad e_i = ad e_i∘P for every basis
    vector e_i of the factor}.  For a compact semisimple factor it is the
    number of simple ideals."""
    dim, ads = stop - start, alg.ad_sparse()
    return intersect_kernels(
        [commutant_operator(ads[i], dim, start) for i in range(start, stop)],
        dim * dim).dim


def schur_certified_by_two_centralizers(ads):
    """The reference Schur certificate: z(z(v)) = Q v, read as one kernel
    of dimension 1 after the kernel z(v), and a full ideal closure of v,
    for v = e_0 or the weighted sum of the longest prefix of pairwise
    commuting basis vectors (liealg.schur_certified, which decides the
    same without building z(z(v)))."""
    m = len(ads)
    if not m:
        return False
    r = 1
    while r < m and not any(combination(ads[r], {j: 1}) for j in range(r)):
        r += 1

    def centralizer(xs):
        # y -> [y, x] has the columns [e_j, x]: its kernel is z(x)
        return intersect_kernels(({j: c for j, ad in enumerate(ads)
                                   if (c := combination(ad, x))}
                                  for x in xs), m)
    weighted = [{j: j + 1 for j in range(r)}] if r > 1 else []
    return any(centralizer(centralizer([v]).columns).dim == 1
               and _closure_dim(ads, v, m) == m for v in [{0: 1}] + weighted)


def center_and_derived_by_every_bracket(alg, s):
    """(z(s), [s,s]) for a bracket-closed subspace s: [s,s] is spanned by
    the brackets of every pair of basis vectors, and z(s) is the common
    kernel of c ↦ Σ_i c_i [s_i, s_j] over every basis vector s_j."""
    cols, m = s.columns, s.dim
    br = {(i, j): alg.bracket_sparse(cols[i], cols[j])
          for i, j in combinations(range(m), 2)}
    br.update({(j, i): {k: -x for k, x in v.items()}
               for (i, j), v in list(br.items())})
    ops = ({i: c for i in range(m) if (c := br.get((i, j)))}
           for j in range(m))
    zs = intersect_kernels(ops, m)
    return (Subspace.span(alg.n, [combination(cols, c) for c in zs.columns]),
            Subspace.span(alg.n, br.values()))


def intersect(s1, s2):
    """s1 ∩ s2 for subspaces of one ambient space: B1 c[:dim s1] over the
    kernel vectors c of [B1 | -B2], eliminated in dim s1 + dim s2
    unknowns."""
    k = s1.dim
    rows = transpose(s1.columns + [{i: -x for i, x in col.items()}
                                   for col in s2.columns])
    ker = kernel_basis(list(rows.values()), k + s2.dim)
    return Subspace.span(s1.ambient_dim, [
        combination(s1.columns, {j: a for j, a in c.items() if j < k})
        for c in ker.columns])


def clear_row_by_copy(row):
    """A row, a dense sequence or a sparse dict of Fractions or ints,
    cleared to coprime integers as a new {col: int} dict ({} when zero)."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    ints = {j: x for j, x in items if x}
    if not ints:
        return ints
    if not all(type(x) is int for x in ints.values()):
        den = lcm(*(x.denominator for x in ints.values()))
        ints = {j: x.numerator * (den // x.denominator)
                for j, x in ints.items()}
    g = gcd(*ints.values())
    if g > 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


def half_turn_signs_on_every_column(columns, m):
    """The diagonal of exp(pi A) when it is a sign matrix other than the
    identity, else None: e_j is in ker(A^2 + 1) (sign -1) or in
    ker A(A^2 + 4) (sign 1) for every j, read as A^2 e_j and A^3 e_j."""
    cols = columns if isinstance(columns, dict) else dict(enumerate(columns))
    signs = []
    for j in range(m):
        a2 = combination(cols, a1 := cols.get(j, {}))
        if a2 == {j: -1}:
            signs.append(-1)
        elif combination(cols, a2) == {r: -4 * x for r, x in a1.items()}:
            signs.append(1)
        else:
            return None
    return signs if -1 in signs else None


def derivation_column_over_every_image(images, mon, index):
    """Column F_mon of the derivation F_c -> images[c] on the positions of
    index, each image c tested against mon."""
    acc = {}
    for c, image in images.items():
        if mon & c:
            rest = mon ^ c
            for (bits, below), v in image.items():
                if not rest & bits:
                    row = index[rest | bits]
                    odd = (rest & ((c - 1) ^ below)).bit_count() % 2
                    acc[row] = acc.get(row, 0) + (-v if odd else v)
    return nonzero(acc)


def components_by_merging(n, groups):
    """The classes of 0..n-1 the groups join, sorted: each group, then each
    singleton, merged with every class it meets.  An empty group stays an
    empty class."""
    blocks = []
    for group in map(set, list(groups) + [{i} for i in range(n)]):
        apart = [b for b in blocks if not b & group]
        blocks = apart + [group.union(*(b for b in blocks if b & group))]
    return sorted(map(sorted, blocks))


def blocks_by_merging(pair):
    """ce._blocks by the merge rule: the factors, the h column supports
    and each generator's moved columns with their images' supports."""
    groups = [range(start, stop) for _, start, stop in pair.algebra.factors]
    groups += [col.keys() for col in pair.h.columns]
    for gcols in pair.generator_columns:
        moved = [j for j, col in enumerate(gcols) if col != {j: 1}]
        groups.append(set(moved).union(*(gcols[j] for j in moved)))
    return components_by_merging(pair.algebra.n, groups)


def graded_monomials_by_sorting(q, masks, top):
    """Per degree 0..top, the J on q bits with J & S of even popcount for
    every mask S, in combinations(range(q), k) order: every sum of at most
    top vectors of a basis perp of them, sorted by its bits read
    backwards unless perp is the unit vectors in order."""
    perp = [1 << j for j in range(q)]
    for s in masks:
        first = [v for v in perp if (v & s).bit_count() % 2][:1]
        perp = [v ^ first[0] if (v & s).bit_count() % 2 else v
                for v in perp if v not in first]
    levels = [[] for _ in range(top + 1)]
    for t in range(top + 1):
        for chosen in combinations(perp, t):
            mon = reduce(xor, chosen, 0)
            if mon.bit_count() <= top:
                levels[mon.bit_count()].append(mon)
    if all(v & v - 1 == 0 for v in perp):
        return levels
    return [sorted(level, reverse=True, key=lambda m: int(
        bin(m)[:1:-1], 2) << q - m.bit_length()) for level in levels]


def block_pair_by_rebuilding(pair, coords):
    """ce._block_pair with the block algebra built by LieAlgebra(...)
    from the renumbered table, which reads every constant again."""
    alg = pair.algebra
    if len(coords) == alg.n:
        return pair
    at = {c: i for i, c in enumerate(coords)}
    algebra = LieAlgebra(
        sum(c < alg.l for c in coords),
        [(name, stop - start) for name, start, stop in alg.factors
         if start in at],
        {(at[i], at[j]): [(at[k], c) for k, c in terms]
         for (i, j), terms in alg.table.items() if i in at})
    h = [{at[i]: x for i, x in col.items()} for col in pair.h.columns
         if col.keys() <= at.keys()]
    gens = [[{at[i]: x for i, x in gcols[j].items()} for j in coords]
            for gcols in pair.generator_columns
            if any(gcols[j] != {j: 1} for j in coords)]
    return HomogeneousPair(algebra, h, gens)


def half_turn_masks_on_every_candidate(pair, ann, theta_mats):
    """ce._half_turn_masks with every basis vector of g tested: each e_i
    commuting with h's Lie generators and fixed by every generator, then
    each other Lie generator of h on g/h."""
    alg = pair.algebra
    turns = {i: signs for i, ad in enumerate(alg.ad_sparse())
             if all(g[i] == {i: 1} for g in pair.generator_columns)
             and not any(alg.bracket_sparse({i: 1}, y)
                         for y in pair.h_lie_generators)
             and (signs := half_turn_signs(ad, alg.n))}
    masks = [sum(1 << j for j, f in enumerate(ann.free) if signs[f] < 0)
             for signs in turns.values()]
    accepted = [{i: 1} for i in turns]
    for y, theta in zip(pair.h_lie_generators, theta_mats):
        if y in accepted:
            continue
        cols = {}
        for c, image in theta.items():
            for (bits, _), x in image.items():
                cols.setdefault(bits.bit_length() - 1, {})[
                    c.bit_length() - 1] = x
        if signs := half_turn_signs(cols, ann.dim):
            masks.append(sum(1 << j for j, x in enumerate(signs) if x < 0))
    return masks


def _vec_label(v):
    return "(" + ",".join(rat_str(x) for x in v) + ")"


def _draw(rng):
    """One random (label, pair-or-None) draw; invalid combinations yield None."""
    ambient = rng.choice(AMBIENTS)
    alg = pair_from_name(ambient).algebra
    n = alg.n
    modes = ["zero", "full", "line"]
    if alg.factors:
        modes += ["factor", "factor", "factor_line"]
    if alg.l:
        modes.append("center_line")
    if len(_three_dim_factors(alg)) >= 2:
        modes += ["diag_su2", "diag_su2"]
    if _so5_factors(alg):
        modes += ["so4_block", "so4_block"]
    if _su3_factors(alg):
        modes.append("flag_torus")
    mode = rng.choice(modes)

    vectors = []
    detail = ""
    if mode == "zero":
        pass
    elif mode == "full":
        vectors = [_unit(n, i) for i in range(n)]
    elif mode == "line":
        vectors = [_random_line(rng, n, 0, n)]
        detail = _vec_label(vectors[0])
    elif mode == "factor":
        fi = rng.randrange(len(alg.factors))
        _, start, stop = alg.factors[fi]
        vectors = [_unit(n, i) for i in range(start, stop)]
        detail = str(fi)
    elif mode == "factor_line":
        fi = rng.randrange(len(alg.factors))
        _, start, stop = alg.factors[fi]
        vectors = [_random_line(rng, n, start, stop)]
        detail = "%d/%s" % (fi, _vec_label(vectors[0]))
    elif mode == "center_line":
        vectors = [_random_line(rng, n, 0, alg.l)]
        detail = _vec_label(vectors[0])
    elif mode == "diag_su2":
        s1, s2 = rng.sample(_three_dim_factors(alg), 2)
        ri = rng.randrange(len(_ROTATIONS) + 1)
        R = _ROTATIONS[ri] if ri < len(_ROTATIONS) else eye(3)
        for i in range(3):
            v = _unit(n, s1 + i)
            for a in range(3):
                v[s2 + a] = R[a][i]
            vectors.append(v)
        detail = "%d,%d,rot%d" % (s1, s2, ri)
    elif mode == "so4_block":
        start = rng.choice(_so5_factors(alg))
        vectors = [_unit(n, start + idx) for idx in _SO4_IN_SO5]
        detail = str(start)
    elif mode == "flag_torus":
        start = rng.choice(_su3_factors(alg))
        vectors = [_unit(n, start), _unit(n, start + 1)]
        detail = str(start)

    generators = []
    gen_tag = ""
    roll = rng.random()
    if roll < 0.3 and _three_dim_factors(alg):
        start = rng.choice(_three_dim_factors(alg))
        pattern = rng.choice(_SIGN_PATTERNS)
        generators = [su2_sign_generator(alg, start, pattern)]
        gen_tag = "+sign%d(%d,%d,%d)" % ((start,) + pattern)
    elif roll < 0.45 and mode == "so4_block" and _so5_factors(alg):
        start = int(detail)
        generators = [so5_swap_generator(alg, start)]
        gen_tag = "+swap"

    label = "%s/%s:%s%s" % (ambient, mode, detail, gen_tag)
    try:
        pair = HomogeneousPair.from_vectors(alg, vectors, generators)
    except ValueError:
        return label, None
    return label, pair


def suite(count=28, seed=20260817):
    """Deterministic list of (label, validated pair); len(result) == count."""
    rng = random.Random(seed)
    pairs = [("so:5/so4_block+swap(rp4)", rp4_pair()),
             ("su:2+su:2/diag_twisted", twisted_diagonal_pair())]
    seen = {label for label, _ in pairs}
    guard = 0
    while len(pairs) < count and guard < count * 60:
        guard += 1
        label, pair = _draw(rng)
        if pair is None or label in seen:
            continue
        if not validate_pair(pair).ok:
            continue
        seen.add(label)
        pairs.append((label, pair))
    if len(pairs) < count:
        raise RuntimeError("pair generator starved: only %d pairs" % len(pairs))
    return pairs
