"""Homogeneous pairs (g, h, component generators) and their decompositions.

A HomogeneousPair models G/H for G compact connected with Lie algebra g and
H a closed (possibly disconnected) subgroup: h is given by a basis of its
Lie algebra inside g, and the component group H/H⁰ is given by finitely many
generator matrices describing the Ad-action of component representatives.

The generator conditions checked here (automorphism, h preserved, center
fixed pointwise, declared simple factors preserved) are necessary for a
matrix to arise as Ad(x) with x in a compact connected G normalizing H⁰.
They are not sufficient: inputs passing every check may still fail to
integrate to a closed subgroup.  That trust boundary is the caller's.

A pair holds its input as sparse {row: value} columns only, in linalg's
encoding: h as the Subspace h, each generator as its n columns gamma e_i
(generator_columns).  Nested lists appear only at the document edge:
from_vectors, which from_dict calls, takes h's basis vectors and each
generator's n rows, and to_dict writes them back.  A pair computes once
what it keeps of H, and every check and method reads it: from one
closure pass, h's Lie generators and closedness at construction; the
validate_pair report, the ad(h) table h_ad, the decomposition, with z(h)
and [h,h] read off h_ad, S²(h*)^H and the coordinates of each B̃ᵢ|_h in it
on first use.
"""

from functools import cached_property

from .invariant_forms import (ad_coordinates, invariant_polynomials,
                              restricted_btilde)
from .liealg import (LieAlgebra, array_field, bracket_closure, object_field,
                     validate)
from .linalg import (Subspace, combination, exact_reader, intersect_kernels,
                     kernel_in, minus_identity, rank, rat_str, transpose)

# Generator order beyond which validate_pair warns
ORDER_BOUND = 256


class HomogeneousPair:
    """A validated-on-demand model of a homogeneous space G/H.

    algebra:    LieAlgebra of g.
    h:          Subspace of g spanned by h_columns (m = dim h, may be 0).
    generator_columns: per generator of H/H⁰, the Ad-action of one
                representative as its n columns gamma e_i (empty for
                connected H).
    h_lie_indices, h_lie_generators: the positions and the columns of h
                that generate it as a Lie algebra; h_closed: is h closed.

    Every column is a {row: value} dict; the constructor reads each value
    once through linalg.exact and drops zeros.  A row outside 0..n-1,
    dependent h columns and a generator without n columns are ValueErrors.
    """

    def __init__(self, algebra, h_columns=(), generator_columns=()):
        self.algebra = algebra
        n = algebra.n
        self.h = Subspace(n, _checked(h_columns, n))
        if rank(self.h.columns, n) != self.h.dim:
            raise ValueError("basis columns are dependent")
        self.h_lie_indices, closure_dim = bracket_closure(algebra,
                                                          self.h.columns)
        self.h_lie_generators = [self.h.columns[t] for t in self.h_lie_indices]
        self.h_closed = closure_dim == self.h.dim
        self._h_ad = {}
        self.generator_columns = []
        for cols in generator_columns:
            if len(cols) != n:
                raise ValueError("generator must be %d x %d" % (n, n))
            self.generator_columns.append(_checked(cols, n))

    @cached_property
    def validation(self):
        """validate_pair(self), run once."""
        return validate_pair(self)

    @cached_property
    def decomposition(self):
        """decompose(self), run once; read-only."""
        return decompose(self)

    def h_ad(self, t):
        """ad_coordinates(algebra, h, c_t) for the column c_t of h, built
        once per column; ValueError when h is not bracket-closed."""
        if not self.h_closed:
            raise ValueError("not a subalgebra: h is not bracket-closed")
        if t not in self._h_ad:
            self._h_ad[t] = ad_coordinates(self.algebra, self.h,
                                           self.h.columns[t])
        return self._h_ad[t]

    @cached_property
    def h_forms(self):
        """S²(h*)^H, the InvariantFormSpace of invariant_polynomials(self,
        self.h, 2); shared by Ψ and the Koszul complex, so read-only."""
        return invariant_polynomials(self, self.h, 2)

    @cached_property
    def h_btilde(self):
        """Each B̃ᵢ|_h in h_forms (restricted_btilde); read-only too."""
        return restricted_btilde(self, self.h_forms)

    @classmethod
    def from_vectors(cls, algebra, vectors, generators=()):
        """Build from h's basis vectors and each generator's n rows, every
        one of length n: the nested-list form of the document."""
        n = algebra.n
        for j, v in enumerate(vectors):
            if len(v) != n:
                raise ValueError("subalgebra basis vector %d has %d entries, "
                                 "expected %d" % (j, len(v), n))
        gens = []
        for g in generators:
            if len(g) != n or any(len(row) != n for row in g):
                raise ValueError("generator must be %d x %d" % (n, n))
            gens.append([dict(enumerate(col)) for col in zip(*g)])
        return cls(algebra, [dict(enumerate(v)) for v in vectors], gens)

    # -- serialization --------------------------------------------------------

    def to_dict(self):
        n = self.algebra.n
        basis = [[rat_str(col.get(i, 0)) for i in range(n)]
                 for col in self.h.columns]
        gens = [[[rat_str(col.get(i, 0)) for col in cols] for i in range(n)]
                for cols in self.generator_columns]
        return {"algebra": self.algebra.to_dict(),
                "subalgebra": {"basis": basis},
                "component_generators": gens}

    @classmethod
    def from_dict(cls, data):
        data = object_field(data, "document")
        alg = LieAlgebra.from_dict(data.get("algebra"))
        basis = object_field(data.get("subalgebra", {}),
                             "subalgebra").get("basis", [])
        vectors = [array_field(v, "subalgebra basis vector")
                   for v in array_field(basis, "subalgebra basis")]
        gens = [[array_field(row, "generator row")
                 for row in array_field(g, "generator")]
                for g in array_field(data.get("component_generators", []),
                                     "component_generators")]
        return cls.from_vectors(alg, vectors, gens)


class PairDecomposition:
    """The subspaces entering the low-degree Betti formulas.

    zh = z(h), hh = [h,h], hcapgg = h ∩ [g,g], a = z(h) ∩ [g,g],
    b = the Killing-orthogonal of h∩[g,g] in h, a = a_fixed ⊕ a_moved under
    the generator action, r0 = dim g/([g,g]+h) = l − dim b.
    """

    def __init__(self, zh, hh, hcapgg, a, b, a_fixed, a_moved, r0):
        self.zh = zh
        self.hh = hh
        self.hcapgg = hcapgg
        self.a = a
        self.b = b
        self.a_fixed = a_fixed
        self.a_moved = a_moved
        self.r0 = r0

    def dims(self):
        return {"dim_h": self.zh.dim + self.hh.dim,
                "dim_zh": self.zh.dim, "dim_hh": self.hh.dim,
                "dim_h_cap_gg": self.hcapgg.dim,
                "dim_a": self.a.dim, "dim_b": self.b.dim,
                "dim_a_fixed": self.a_fixed.dim, "dim_a_moved": self.a_moved.dim,
                "r0": self.r0}


def _checked(columns, n):
    """The columns, {row: value} dicts, with each value read by
    linalg.exact (each distinct string once), zeros dropped and rows in
    order; ValueError for a row outside 0..n-1."""
    out, rows, read = [], range(n), exact_reader()
    for col in columns:
        if not all(i in rows for i in col.keys()):
            raise ValueError("column row outside 0..%d" % (n - 1))
        out.append({i: x for i, v in sorted(col.items()) if (x := read(v))})
    return out


def _image(gcols, s):
    """The span of gamma applied to the columns of the subspace s."""
    return Subspace.span(s.ambient_dim,
                         [combination(gcols, c) for c in s.columns])


def generator_order(gcols):
    """Multiplicative order of a matrix given by its sparse columns gamma e_i,
    or None if it exceeds ORDER_BOUND."""
    power = gcols
    for k in range(1, ORDER_BOUND + 1):
        if all(col == {i: 1} for i, col in enumerate(power)):
            return k
        power = [combination(gcols, col) for col in power]
    return None


def validate_pair(pair):
    """Check every HomogeneousPair invariant; returns a ValidationReport.

    The report starts with validate(pair.algebra)'s checks, so one call
    gates the whole input.  Generator order beyond ORDER_BOUND is a warning,
    not a failure: the order check only exists to flag inputs that cannot
    describe a finite component group.
    """
    alg = pair.algebra
    rep = validate(alg)
    n = alg.n
    gcols = pair.generator_columns

    rep.add("h_bracket_closed", pair.h_closed)

    # gamma [e_i, e_j] against [gamma e_i, gamma e_j], (gi, i, j) in order
    bad_auto = next(
        ((gi, i, j) for gi, cols in enumerate(gcols)
         for i in range(n) for j in range(i + 1, n)
         if combination(cols, dict(alg.table.get((i, j), ())))
         != alg.bracket_sparse(cols[i], cols[j])), None)
    rep.add("generator_is_automorphism", bad_auto is None, bad_auto)

    bad_h = next((gi for gi, cols in enumerate(gcols)
                  if _image(cols, pair.h) != pair.h), None)
    rep.add("generator_preserves_subalgebra", bad_h is None, bad_h)

    bad_center = next(((gi, i) for gi, cols in enumerate(gcols)
                       for i in range(alg.l) if cols[i] != {i: 1}), None)
    rep.add("generator_fixes_center_pointwise", bad_center is None, bad_center)

    # gamma maps the factor's unit vectors onto it: each gamma e_t lies in
    # the factor's coordinates, and together they have full rank
    bad_factor = next(
        ((gi, name) for gi, cols in enumerate(gcols)
         for name, start, stop in alg.factors
         if not all(start <= i < stop for col in cols[start:stop]
                    for i in col)
         or rank(cols[start:stop], n) < stop - start), None)
    rep.add("generator_preserves_each_factor", bad_factor is None, bad_factor)

    for gi, cols in enumerate(gcols):
        if generator_order(cols) is None:
            rep.warn("generator %d has order exceeding %d; the component "
                     "group of a closed subgroup must be finite"
                     % (gi, ORDER_BOUND))
    return rep


def decompose(pair):
    """Compute the decomposition h = a ⊕ [h,h] ⊕ b and its refinements.

    z(h) and [h,h] are the common kernel and the span of the images of
    ad Y on h, in h's coordinates, Y over the Lie generators of h
    (pair.h_ad): [[x, y], z] = [x, [y, z]] − [y, [x, z]] carries both
    from the generators to h.
    Every other subspace is cut out of one already found by kernel_in: a
    and h∩[g,g] by the center coordinates, b out of h by the Killing
    pairing with h∩[g,g], a_fixed out of a by γ − 1 per generator.
    Relies on the pair being valid; every structural identity the theory
    guarantees is re-checked here and raises ValueError when violated, since
    a violation means the input does not model a compact homogeneous space.
    """
    alg = pair.algebra
    n = alg.n
    gcols = pair.generator_columns

    ads = [pair.h_ad(t) for t in pair.h_lie_indices]
    coords = intersect_kernels(({j: c for j, c in enumerate(ad) if c}
                                for ad in ads), pair.h.dim)
    zh = Subspace(n, [combination(pair.h.columns, c) for c in coords.columns])
    images = Subspace.span(pair.h.dim, [c for ad in ads for c in ad])
    hh = Subspace(n, [combination(pair.h.columns, c) for c in images.columns])
    # [g,g] is spanned by the unit vectors of the factors, so the vectors
    # in it are those with no center coordinate
    center = [{i: {i: 1} for i in range(alg.l)}]
    a = kernel_in(zh, center)
    hcapgg = kernel_in(pair.h, center)
    # b = {x ∈ h : K(x, y) = 0 for y ∈ h∩[g,g]}; K is zero on the center
    killing = [{j: x for j, x in enumerate(row) if x}
               for row in alg.killing()]
    b = kernel_in(pair.h, [transpose([combination(killing, c)
                                      for c in hcapgg.columns])])

    moves = [minus_identity(cols, n) for cols in gcols]
    a_fixed = kernel_in(a, moves)
    a_moved = Subspace.span(n, [combination(m, c)
                                for m in moves for c in a.columns])

    r0 = alg.l - b.dim

    def fail(what):
        raise ValueError("decomposition invariant failed: %s" % what)

    def splits(whole, part, rest):
        """whole = part ⊕ rest for parts inside whole: the dimensions add
        up and the parts are independent."""
        return (part.dim + rest.dim == whole.dim
                and rank(part.columns + rest.columns, n) == whole.dim)

    # the first two give h = a ⊕ [h,h] ⊕ b; a ⊆ z(h) by construction
    if not splits(pair.h, zh, hh):
        fail("h = z(h) ⊕ [h,h]")
    if not splits(zh, a, b) or not zh.contains_subspace(b):
        fail("z(h) = a ⊕ b")
    if not splits(a, a_fixed, a_moved):
        fail("a = a_fixed ⊕ a_moved")
    # dim([g,g] + h) = (n - l) + dim h - dim h∩[g,g]
    if r0 != alg.l - pair.h.dim + hcapgg.dim:
        fail("r0 = dim g/([g,g]+h)")
    for gi, cols in enumerate(gcols):
        if any(combination(cols, c) != c for c in b.columns):
            fail("generator %d acts as identity on b" % gi)
        # gamma is the identity on b, so it preserves b
        for name, s in (("a", a), ("[h,h]", hh), ("h∩[g,g]", hcapgg)):
            if _image(cols, s) != s:
                fail("generator %d preserves %s" % (gi, name))

    return PairDecomposition(zh, hh, hcapgg, a, b, a_fixed, a_moved, r0)
