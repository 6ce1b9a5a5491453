"""Compact reductive Lie algebras over Q with declared center/factor structure.

A LieAlgebra carries a basis e_0 .. e_{n-1} in which e_0 .. e_{l-1} span the
center z(g) and the remaining indices are partitioned into declared simple
ideals g_1, ..., g_r.  Structure constants are stored sparsely for i < j only;
[e_i, e_j] = sum_k c_{ijk} e_k, the i > j entries follow by antisymmetry.

Factors are declared by the input and verified, never discovered:
discovery would need idempotent splitting of the adjoint commutant, which
can fail over Q.  Simplicity is verified by dim S²(f*)^f, the invariant
quadratic forms of the factor f.  When its Killing form is negative
definite, each simple ideal of f⊗R is absolutely simple, so that dimension
counts them and 1 is exactly simplicity: so(4) in its standard
coordinates is rejected.  schur_certified proves simplicity from one
cyclic vector v with z(z(v)) = Q v, which covers every factor of the
catalog; any other factor takes the count, one kernel in m(m + 1)/2
unknowns for m = dim f.  A failing factor's witness is a basis vector
whose ideal closure is smaller, if it has one (closures are grown only
then, or when Jacobi fails).  All of it runs through the nonzero
structure constants, cleared to integers: validate checks the table in
the basis D e_i, D the lcm of the constants' denominators, whose
constants are the integers D c, and a table of integers as it is.
Jacobi sums and Killing values scale by D², and no centralizer, closure,
count or witness changes.

The factor checks read each factor as its own algebra, LieAlgebra.ideal:
the table renumbered once, kept by the algebra per coordinate set, so the
CE blocks of a validated pair read the same ideal and its ad_sparse().

bracket_closure is the one closure pass over a subspace: lie_generators
reads it, and a HomogeneousPair runs it once on h.
"""

from itertools import chain
from math import lcm

from .invariant_forms import derivation_operators
from .linalg import (INTEGER, _indexed, combination, echelon_insert, exact,
                     exact_reader, intersect_kernels, is_spd, nonzero,
                     rat_str, sparse_product, trace_gram)


# Largest algebra dimension accepted.  Builders check it before any matrix
# is allocated, so an oversized request fails at once with a ValueError.
# so(n), su(n) and sp(n) read their constants off the matrix units of their
# bases: on one 2-core box su(8) (n = 63) builds in 0.02 s and validates in
# 0.5 s, sp(5) (n = 55) builds in 0.01 s and validates in 0.4 s, and
# sphere:10 (n = 55) validates in 0.25 s.  These times hold for the catalog
# bases, where the Schur certificate proves every factor simple.  In
# another rational basis a factor may take the invariant-form count:
# so(7) (n = 21) in the basis e_i + e_{i+1}/2 + e_{i+7}, checked on its
# table cleared to integers, validates in 1.6 s, most of it in that
# count.  64 keeps every catalog input tractable.
MAX_DIM = 64


def int_field(value, field):
    """An integer document field: an int, or a string [+-]?[0-9]+ as in
    linalg.exact.  Raises ValueError naming the field for anything else,
    a float, a bool, "1_0", " 0 " or non-ASCII digits included.
    """
    if type(value) is int or type(value) is str and INTEGER.fullmatch(value):
        return int(value)
    raise ValueError("%s must be an integer, not %r" % (field, value))


def string_field(value, field):
    """A document field that must be a JSON string: the str itself, else a
    ValueError naming the field."""
    if not isinstance(value, str):
        raise ValueError("%s must be a string, not %r" % (field, value))
    return value


def array_field(value, field):
    """A document field that must be a JSON array: the list itself, else a
    ValueError naming the field (a string is not read as its characters)."""
    if not isinstance(value, list):
        raise ValueError("%s must be an array, not %r" % (field, value))
    return value


def object_field(value, field):
    """A document field that must be a JSON object: the dict itself, else a
    ValueError naming the field."""
    if not isinstance(value, dict):
        raise ValueError("%s must be an object, not %r" % (field, value))
    return value


def check_dim(n, what):
    """Raise ValueError if an algebra of dimension n is above MAX_DIM."""
    if n > MAX_DIM:
        raise ValueError("%s has dimension %d, above the limit of %d"
                         % (what, n, MAX_DIM))


class ValidationError(ValueError):
    def __init__(self, report):
        self.report = report
        names = ", ".join(c["name"] for c in report.failures())
        super().__init__("validation failed: %s" % names)


class ValidationReport:
    """Outcome of validate()/validate_pair(): named checks with witnesses."""

    def __init__(self):
        self.checks = []
        self.warnings = []

    def add(self, name, ok, witness=None):
        self.checks.append({"name": name, "ok": bool(ok), "witness": witness})

    def warn(self, message):
        self.warnings.append(message)

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c["ok"]]

    def ensure(self):
        if not self.ok:
            raise ValidationError(self)
        return self

    def describe(self):
        lines = []
        for c in self.checks:
            line = "%-4s %s" % ("ok" if c["ok"] else "FAIL", c["name"])
            if not c["ok"] and c["witness"] is not None:
                line += "  witness=%r" % (c["witness"],)
            lines.append(line)
        lines.extend("warn %s" % w for w in self.warnings)
        return "\n".join(lines)


class LieAlgebra:
    """Immutable (after validation) compact reductive Lie algebra model.

    factors: list of (name, start, stop) index ranges partitioning l .. n-1.
    table:   {(i, j): ((k, c), ...)} with i < j, global indices; c is an
             int when integral, else a Fraction (linalg.exact).
    """

    def __init__(self, center_dim, factors, table):
        if center_dim < 0:
            raise ValueError("center_dim must be non-negative, not %d"
                             % center_dim)
        for name, dim in factors:
            if dim < 0:
                raise ValueError("dim of factor %r must be non-negative, "
                                 "not %d" % (name, dim))
        check_dim(center_dim + sum(dim for _, dim in factors), "the algebra")
        self.l = center_dim
        self.factors = []
        pos = center_dim
        for name, dim in factors:
            self.factors.append((name, pos, pos + dim))
            pos += dim
        self.n = pos
        tbl = {}
        for (i, j), terms in table.items():
            if not (0 <= i < j < self.n):
                raise ValueError("structure constant indices out of range: (%d,%d)" % (i, j))
            agg = {}
            for k, c in terms:
                if not 0 <= k < self.n:
                    raise ValueError("structure constant target out of range: %d" % k)
                agg[k] = agg.get(k, 0) + exact(c)
            merged = tuple(sorted((k, c if type(c) is int else exact(c))
                                  for k, c in agg.items() if c))
            if merged:
                tbl[(i, j)] = merged
        self.table = tbl
        self._ad_sparse = None
        self._killing = None
        self._ideals = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_factor_constants(cls, center_dim, factor_specs):
        """Build from per-factor local structure constants.

        factor_specs: list of (name, dim, constants) where constants is an
        iterable of (i, j, k, c) in factor-local indices with i < j.
        """
        factors = [(name, dim) for name, dim, _ in factor_specs]
        cls(center_dim, factors, {})    # rejects a bad dim before its indices
        table = {}
        offset = center_dim
        for name, dim, constants in factor_specs:
            for i, j, k, c in constants:
                if not (0 <= i < j < dim and 0 <= k < dim):
                    raise ValueError("factor %r: bad local indices (%d,%d,%d)" % (name, i, j, k))
                key = (offset + i, offset + j)
                table.setdefault(key, []).append((offset + k, c))
            offset += dim
        return cls(center_dim, factors, table)

    @classmethod
    def abelian(cls, l):
        return cls(l, [], {})

    def ideal(self, coords):
        """The ideal with basis e_c, c over the increasing coordinates
        coords, as a LieAlgebra in its own coordinates 0..len(coords)-1.
        coords hold center coordinates and whole factors, so it is an
        ideal once cross-factor brackets vanish (validate).  Its table is
        this one's, renumbered and not read again; it is built once per
        coords, so validate and ce's blocks share it and its ad_sparse().
        """
        key = tuple(coords)
        if key not in self._ideals:
            at = {c: i for i, c in enumerate(key)}
            sub = self._ideals[key] = LieAlgebra.__new__(LieAlgebra)
            sub.l = sum(c < self.l for c in key)
            sub.factors = [(name, at[start], at[start] + stop - start)
                           for name, start, stop in self.factors
                           if start in at]
            sub.n = len(key)
            sub.table = {
                (at[i], at[j]): tuple([(at[k], c) for k, c in terms])
                for (i, j), terms in self.table.items() if i in at}
            sub._ad_sparse = sub._killing = None
            sub._ideals = {}
        return self._ideals[key]

    @property
    def r(self):
        """Number of declared simple factors (#g)."""
        return len(self.factors)

    def factor_indices(self, i):
        _, start, stop = self.factors[i]
        return range(start, stop)

    # -- brackets ------------------------------------------------------------

    def bracket_sparse(self, u, v):
        """[u, v] for sparse {index: coefficient} vectors, as such a dict.

        Only the nonzeros of u and v are visited, each pair looking up its
        structure constants in the table.
        """
        out = {}
        table = self.table
        for i, a in u.items():
            for j, b in v.items():
                if i < j:
                    terms = table.get((i, j))
                    coef = a * b
                elif i > j:
                    terms = table.get((j, i))
                    coef = -a * b
                else:
                    continue
                if terms:
                    for k, c in terms:
                        out[k] = out.get(k, 0) + coef * c
        return nonzero(out)

    def ad_sparse(self):
        """Per basis vector i, ad e_i as its columns {j: [e_i, e_j]}, each a
        {row: c} dict, the zero columns left out.  Cached: treat it as
        read-only."""
        if self._ad_sparse is None:
            ads = [{} for _ in range(self.n)]
            for (i, j), terms in self.table.items():
                ads[i][j] = dict(terms)
                ads[j][i] = {k: -c for k, c in terms}
            self._ad_sparse = ads
        return self._ad_sparse

    # -- Killing data ---------------------------------------------------------

    def killing(self):
        """K(e_i, e_j) = trace(ad e_i ∘ ad e_j) as rows K[i][j] of exact
        values (linalg.exact); symmetric, zero on center.  Cached: treat it
        as read-only."""
        if self._killing is None:
            self._killing = [[x if type(x) is int else exact(x)
                              for x in row]
                             for row in trace_gram(self.ad_sparse())]
        return self._killing

    def btilde(self, i):
        """B-tilde_i(X, Y) := B_i(X_i, Y_i): Killing of factor i pulled back
        through the projection g -> g_i, as its nonzeros {(a, b): value};
        they all lie in the factor block of killing."""
        if not (0 <= i < self.r):
            raise ValueError("factor index out of range")
        K = self.killing()
        block = self.factor_indices(i)
        return {(a, b): K[a][b] for a in block for b in block if K[a][b]}

    # -- serialization ----------------------------------------------------------

    def to_dict(self):
        factors = []
        for name, start, stop in self.factors:
            constants = []
            for (i, j), terms in sorted(self.table.items()):
                if start <= i < stop:
                    for k, c in terms:
                        constants.append([i - start, j - start, k - start, rat_str(c)])
            factors.append({"name": name, "dim": stop - start,
                            "structure_constants": constants})
        return {"center_dim": self.l, "factors": factors}

    @classmethod
    def from_dict(cls, data):
        specs, read = [], exact_reader()
        factors = object_field(data, "algebra").get("factors", [])
        for fac in array_field(factors, "factors"):
            fac = object_field(fac, "factor")
            if "type" in fac:
                from . import catalog
                specs.append(catalog.factor_from_shorthand(fac))
            else:
                index = "structure constant index"
                entries = [array_field(e, "structure constant")
                           for e in array_field(
                               fac.get("structure_constants", []),
                               "structure_constants")]
                for e in entries:
                    if len(e) != 4:
                        raise ValueError("structure constant must be an "
                                         "array of 4 entries, not %r" % (e,))
                constants = [(int_field(i, index), int_field(j, index),
                              int_field(k, index), read(c))
                             for i, j, k, c in entries]
                specs.append((string_field(fac.get("name"), "factor name"),
                              int_field(fac.get("dim"), "dim"), constants))
        return cls.from_factor_constants(
            int_field(data.get("center_dim", 0), "center_dim"), specs)


# ---------------------------------------------------------------------------
# subalgebra analysis and validation
# ---------------------------------------------------------------------------

def bracket_closure(alg, columns):
    """(positions, dim): the positions of the columns not in the Lie
    subalgebra generated by those before them, and the dimension of the
    subalgebra all of them generate.

    Each new echelon row of the closure is bracketed with every row before
    it.  When Jacobi holds, whatever kills the generating columns kills
    the algebra they generate, as [x, y]·F = x·(y·F) − y·(x·F).
    """
    echelon, rows, gens = {}, [], []
    for t, col in enumerate(columns):
        todo = [echelon_insert(echelon, col)]
        if todo[0] is None:
            continue
        gens.append(t)
        while todo:
            u = todo.pop()
            for v in rows:
                row = echelon_insert(echelon, alg.bracket_sparse(u, v))
                if row is not None:
                    todo.append(row)
            rows.append(u)
    return gens, len(rows)


def lie_generators(alg, columns):
    """The columns not in the Lie subalgebra generated by those before
    them (bracket_closure)."""
    return [columns[t] for t in bracket_closure(alg, columns)[0]]


def validate(alg):
    """Check every LieAlgebra invariant; returns a ValidationReport.

    The checks run on the table cleared to integers (_cleared), so no
    Fraction reaches a Jacobi sum, a Killing value or an elimination.
    """
    rep = ValidationReport()
    alg = _cleared(alg)

    # center brackets vanish: a stored key (i, j), i < j, with i < l fails
    bad = next(((i, j) for i, j in alg.table if i < alg.l), None)
    rep.add("center_brackets_vanish", bad is None, bad)

    # cross-factor brackets vanish, and each factor is bracket-closed
    factor_of = {t: fi for fi, (_, start, stop) in enumerate(alg.factors)
                 for t in range(start, stop)}.get

    bad_cross = None
    bad_closed = None
    for (i, j), terms in alg.table.items():
        fi, fj = factor_of(i), factor_of(j)
        if fi is None or fj is None:
            continue
        if fi != fj:
            bad_cross = (i, j)
            continue
        for k, c in terms:
            if factor_of(k) != fi:
                bad_closed = (i, j, k)
    rep.add("cross_factor_brackets_vanish", bad_cross is None, bad_cross)
    rep.add("factor_brackets_closed", bad_closed is None, bad_closed)

    # Jacobi identity on all basis triples
    bad_jacobi = _jacobi_witness(alg)
    rep.add("jacobi", bad_jacobi is None, bad_jacobi)

    # Killing form negative definite on each declared factor
    K = alg.killing()
    bad_factor = None
    for fi, (name, start, stop) in enumerate(alg.factors):
        block = [[-K[a][b] for b in range(start, stop)]
                 for a in range(start, stop)]
        if not is_spd(block):
            bad_factor = name
            break
    rep.add("killing_negative_definite_per_factor", bad_factor is None, bad_factor)

    # each declared factor is simple: given Jacobi and the negative-definite
    # Killing form, dim S²(f*)^f counts its simple ideals, as does the
    # dimension of its ad-commutant, the name its witness keeps; then every
    # ideal closure is the whole factor.  schur_certified proves one ideal
    # in dim-factor unknowns; what it does not prove takes the count.  The
    # closures are grown only when that fails, to name a vector whose
    # closure is smaller; a vector can meet every simple ideal of a fused
    # factor, so the count is the fallback witness.  Both need ideal
    # factors, and all three read the factor as its own algebra
    # (alg.ideal), built once off the table: the CE blocks of a pair
    # whose table is integral share it and its ad_sparse().  Without
    # Jacobi neither the certificate nor the count means anything, and
    # the report already fails, so only the closures report.
    bad_simple = None
    if all(w is None for w in (bad, bad_cross, bad_closed, bad_factor)):
        for name, start, stop in alg.factors:
            ads = alg.ideal(range(start, stop)).ad_sparse()
            if bad_jacobi is None:
                if (schur_certified(ads)
                        or (k := _simple_ideal_count(alg, ads, start)) == 1):
                    continue
            bad_simple = _closure_witness(ads, name, start)
            if bad_simple is None and bad_jacobi is None:
                bad_simple = (name, "commutant_dim", k)
            if bad_simple:
                break
    rep.add("factors_simple", bad_simple is None, bad_simple)
    return rep


def _cleared(alg):
    """alg itself when its structure constants are integers, else alg in
    the basis D e_i, D the lcm of their denominators, where they are the
    integers D c.  validate reads the same report off both: Jacobi sums
    and Killing values scale by D², and every centralizer, closure, count
    and witness is unchanged."""
    den = lcm(*(c.denominator for terms in alg.table.values()
                for _, c in terms if type(c) is not int))
    if den == 1:
        return alg
    return LieAlgebra(alg.l, [(name, stop - start)
                              for name, start, stop in alg.factors],
                      {key: [(k, c * den) for k, c in terms]
                       for key, terms in alg.table.items()})


def _jacobi_witness(alg):
    """The lex-first basis triple i < j < k whose Jacobi sum is nonzero.

    The sum of x < y < z is [[e_x, e_y], e_z] plus its two cyclic shifts,
    one term per pair of the three.  So one pass over the stored brackets
    [e_j, e_k] = sum a_m e_m, j < k, builds every sum: each e_i with
    [e_m, e_i] != 0, i not j or k, adds a_m [e_m, e_i] to the sum of the
    sorted (i, j, k), which the place of i against j < k gives, negated
    when j < i < k (then (j, k, i) is not a cyclic shift of it).  A triple
    no term reaches has sum zero.  Sums are filed under (x n + y) n + z,
    which orders the triples lexicographically.
    """
    cols, sums, n = alg.ad_sparse(), {}, alg.n  # cols[m][i] = [e_m, e_i]
    for (j, k), terms in alg.table.items():
        for m, a in terms:
            for i, col in cols[m].items():
                if i < j:
                    key, signed = (i * n + j) * n + k, a
                elif j < i < k:
                    key, signed = (j * n + i) * n + k, -a
                elif i > k:
                    key, signed = (j * n + k) * n + i, a
                else:
                    continue
                if (acc := sums.get(key)) is None:
                    acc = sums[key] = {}
                for r, c in col.items():
                    acc[r] = acc.get(r, 0) + signed * c
    key = min((key for key, acc in sums.items() if any(acc.values())),
              default=None)
    return None if key is None else (key // n // n, key // n % n, key % n)


def _closure_witness(ads, name, start):
    """(name, v) for the first basis vector e_v of the factor from start,
    ads its ad e_i in its own coordinates, whose ideal closure is smaller
    than the factor, or None.

    Center and cross-factor brackets vanish (checked first), so each
    closure only brackets with the factor's own basis.
    """
    dim = len(ads)
    return next(((name, start + v) for v in range(dim)
                 if _closure_dim(ads, {v: 1}, dim) < dim), None)


def _bracketing(ads, x):
    """The columns {j: [e_j, x]} of y -> [y, x] = -sum_i x_i ad e_i (y),
    ads[i] = ad e_i given by its columns, read off x's nonzeros, the zero
    columns left out: its kernel is z(x)."""
    cols = {}
    for i, a in x.items():
        for j, col in _indexed(ads[i]):
            acc = cols.setdefault(j, {})
            for k, c in col.items():
                acc[k] = acc.get(k, 0) - a * c
    return {j: nz for j, col in cols.items() if (nz := nonzero(col))}


def _closure_dim(ads, v, dim):
    """Dimension of the ideal closure of the vector v: the least subspace
    holding v that each matrix of ads, given by its columns, maps into
    itself.  It grows against an integer echelon by the brackets of the
    rows just added (_bracketing) and stops once it reaches dim.
    """
    echelon = {}
    todo = [echelon_insert(echelon, v)]
    while todo and len(echelon) < dim:
        for col in _bracketing(ads, todo.pop()).values():
            row = echelon_insert(echelon, col)
            if row is not None:
                todo.append(row)
                if len(echelon) == dim:
                    break
    return len(echelon)


def _simple_ideal_count(alg, ads, start):
    """dim S²(f*)^f for the factor f from start, ads its ad e_i in its own
    coordinates: with Jacobi, the quadratic forms killed by ad x for x
    over f's Lie generators."""
    units = [{start + i: 1} for i in range(len(ads))]
    index, ops = derivation_operators(
        (ads[i - start] for (i,) in lie_generators(alg, units)), len(ads), 2)
    return intersect_kernels(ops, len(index)).dim


def schur_certified(ads):
    """True when the ad-commutant of a Lie algebra s is proven to be the
    scalars; False proves nothing.  ads[i] is ad e_i given by its columns
    {j: [e_i, e_j]}, a dict or a list, in s's own coordinates.

    Schur's argument on a vector v: every P commuting with ad(s) maps v
    into z(z(v)), as [x, Pv] = P[x, v] = 0 for x in z(v).  So when
    z(z(v)) = Qv, P - λ kills v for some λ, its kernel is an ideal, and
    that is all of s when v's ideal closure is.  v lies in z(z(v)), so
    z(z(v)) = Qv exactly when its vectors with y_p = 0, for one p with
    v_p != 0, are zero: the common kernel of y -> y_p and of y -> [y, x],
    x over a basis B of z(v), and intersect_kernels stops at the first
    operator that empties it.  z(z(v)) lies in z(v), as v does, so that
    kernel is taken on y = B c, in dim z(v) unknowns c; z(v) is a kernel
    in dim s unknowns, where the commutant has (dim s)² of them.  With
    Jacobi the commutant of ad(s) is that of any Lie generating set of s.
    v is first sum_{j<r} (j + 1) e_j over the longest prefix of pairwise
    commuting e_j, when r > 1: on su(n)'s diagonal, i diag(1, ..., 1,
    1 - n), with z(v) = s(u(n-1) + u(1)); then e_0 (so(n), sp(n), su(2)).
    """
    m = len(ads)
    if not m:
        return False
    r = 1
    while r < m and not any(combination(ads[r], {j: 1}) for j in range(r)):
        r += 1

    def certifies(v):
        zv = intersect_kernels([_bracketing(ads, v)], m).columns
        p = min(v)
        at_p = {j: {0: x[p]} for j, x in enumerate(zv) if p in x}
        return (intersect_kernels(chain([at_p], (
            sparse_product(_bracketing(ads, x), zv) for x in zv)),
            len(zv)).dim == 0 and _closure_dim(ads, v, m) == m)
    weighted = [{j: j + 1 for j in range(r)}] if r > 1 else []
    return any(certifies(v) for v in weighted + [{0: 1}])
