"""Lie algebra model: brackets, Killing data, subalgebra analysis, validation."""

import random
from fractions import Fraction
from itertools import combinations

from liecoh import catalog, liealg
from liecoh.liealg import (LieAlgebra, ValidationError, bracket_closure,
                           lie_generators, validate)
from liecoh.linalg import Subspace
from liecoh.pairs import HomogeneousPair, decompose

import pairgen

F = Fraction


def _failure_names(report):
    return {c["name"] for c in report.failures()}


def _bracket_basis(g, i, j):
    """[e_i, e_j] as a coordinate list, read off the structure constants."""
    out = [F(0)] * g.n
    for k, c in g.bracket_sparse({i: F(1)}, {j: F(1)}).items():
        out[k] = c
    return out


def _bracket(g, x, y):
    """[x, y] for coordinate lists, expanded over the whole structure table."""
    out = [F(0)] * g.n
    for (i, j), terms in g.table.items():
        w = x[i] * y[j] - x[j] * y[i]
        for k, c in terms:
            out[k] += w * c
    return out


def _sparse(v):
    return {i: x for i, x in enumerate(v) if x}


def _ad_matrix(g, v):
    """Rows of the matrix of ad v, summed from the sparse ad e_i."""
    out = [[F(0)] * g.n for _ in range(g.n)]
    for i, ad in enumerate(g.ad_sparse()):
        for col, entries in ad.items():
            for row, c in entries.items():
                out[row][col] += v[i] * c
    return out


def test_su2_cyclic_brackets():
    su2 = catalog.build("su", 2)
    assert list(_bracket_basis(su2, 0, 1)) == [F(0), F(0), F(2)]
    assert list(_bracket_basis(su2, 1, 2)) == [F(2), F(0), F(0)]
    assert list(_bracket_basis(su2, 0, 2)) == [F(0), F(-2), F(0)]
    # antisymmetry and [x, x] = 0
    assert list(_bracket_basis(su2, 1, 0)) == [F(0), F(0), F(-2)]
    x = {0: F(1), 1: F(2), 2: F(3)}
    assert su2.bracket_sparse(x, x) == {}


def test_abelian_brackets_vanish():
    ab = LieAlgebra.abelian(3)
    assert ab.n == 3 and ab.l == 3 and ab.r == 0
    assert ab.bracket_sparse({0: F(1), 1: F(2), 2: F(3)},
                             {0: F(4), 1: F(5), 2: F(6)}) == {}
    assert ab.killing() == [[0] * 3 for _ in range(3)]


def test_ad_sparse_columns_are_brackets():
    g = catalog.build("su", 3)
    v = [F(1), F(-2), F(0), F(3), F(0), F(0), F(1, 2), F(0)]
    ad = _ad_matrix(g, v)
    for j in range(g.n):
        e = [F(int(t == j)) for t in range(g.n)]
        assert [row[j] for row in ad] == _bracket(g, v, e)
        assert _sparse(_bracket(g, v, e)) == g.bracket_sparse(_sparse(v), {j: 1})


def test_killing_su2_is_minus_eight_identity():
    su2 = catalog.build("su", 2)
    K = su2.killing()
    for i in range(3):
        for j in range(3):
            assert K[i][j] == (F(-8) if i == j else F(0))
    # the exact rows are ints
    assert all(type(x) is int for row in K for x in row)


def test_killing_block_diagonal_on_product():
    g = catalog.pair_from_name("su:2+su:2").algebra
    K = g.killing()
    for i in range(6):
        assert K[i][i] == F(-8)
    for i in range(3):
        for j in range(3, 6):
            assert K[i][j] == F(0) and K[j][i] == F(0)


def test_btilde_restricts_killing_to_one_factor():
    g = catalog.pair_from_name("su:2+su:2").algebra
    B0 = g.btilde(0)
    K = g.killing()
    for i in range(6):
        for j in range(6):
            want = K[i][j] if (i < 3 and j < 3) else F(0)
            assert B0.get((i, j), 0) == want
    assert all(v for v in B0.values())
    # single factor: btilde(0) is the whole Killing form
    su3 = catalog.build("su", 3)
    K = su3.killing()
    assert su3.btilde(0) == {(i, j): K[i][j] for i in range(8)
                             for j in range(8) if K[i][j]}


def test_btilde_vanishes_on_center_coordinates():
    g = catalog.pair_from_name("torus:1+su:2").algebra
    assert g.l == 1 and g.r == 1
    B = g.btilde(0)
    assert all(B.get((0, j), 0) == F(0) for j in range(g.n))
    assert all(B.get((i, 0), 0) == F(0) for i in range(g.n))
    try:
        g.btilde(1)
    except ValueError:
        pass
    else:
        raise AssertionError("factor index out of range accepted")


def test_killing_gram_is_ad_invariant():
    g = catalog.pair_from_name("torus:2+su:2").algebra
    gram = g.killing()
    # zero on the center block, negative definite on the factor block
    assert gram[0][0] == 0 and gram[1][1] == 0
    assert gram[2][2] == F(-8)
    # ad-invariance: K(ad_v x, y) + K(x, ad_v y) = 0 on basis vectors
    n = g.n
    for v_idx in range(n):
        ad = _ad_matrix(g, [F(int(t == v_idx)) for t in range(n)])
        assert all(sum(ad[k][i] * gram[k][j] + gram[i][k] * ad[k][j]
                       for k in range(n)) == 0
                   for i in range(n) for j in range(n))


def _center_and_derived(alg, vectors):
    """decompose's z(h) and [h,h] for h spanned by the vectors, checked
    against the all-brackets reference."""
    pair = HomogeneousPair.from_vectors(alg, vectors)
    dec = decompose(pair)
    assert (dec.zh, dec.hh) == pairgen.center_and_derived_by_every_bracket(
        alg, pair.h)
    return dec.zh, dec.hh


def test_center_and_derived_full_su2():
    su2 = catalog.build("su", 2)
    zs, ds = _center_and_derived(su2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert zs.dim == 0 and ds.dim == 3


def test_center_and_derived_abelian():
    ab = LieAlgebra.abelian(2)
    full = Subspace.span(2, [[1, 0], [0, 1]])
    zs, ds = _center_and_derived(ab, [[1, 0], [0, 1]])
    assert zs == full and ds.dim == 0


def test_center_and_derived_diagonal_su2():
    g = catalog.pair_from_name("su:2+su:2").algebra
    vectors = [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
    diag = Subspace.span(6, vectors)
    assert bracket_closure(g, diag.columns)[1] == diag.dim
    zs, ds = _center_and_derived(g, vectors)
    assert zs.dim == 0 and ds == diag


def test_center_and_derived_rejects_non_subalgebra():
    su2 = catalog.build("su", 2)
    line_pair = HomogeneousPair.from_vectors(su2, [[1, 0, 0], [0, 1, 0]])
    assert bracket_closure(su2, line_pair.h.columns)[1] != line_pair.h.dim
    assert not line_pair.h_closed
    try:
        decompose(line_pair)
    except ValueError as e:
        assert "not a subalgebra" in str(e)
    else:
        raise AssertionError("non-subalgebra accepted")


def test_validate_catalog_algebras():
    for name in ("su:2", "su:3", "so:5", "sp:2", "torus:3+su:2"):
        rep = validate(catalog.pair_from_name(name).algebra)
        assert rep.ok, "%s: %s" % (name, rep.describe())
        assert rep.warnings == []


def test_validate_jacobi_failure_with_witness():
    # cyclic su(2) table with the target of [e1,e2] mistyped: 2*e1 instead
    # of 2*e0.  This genuinely breaks the Jacobi identity.
    bad = LieAlgebra(0, [("su(2)", 3)], {
        (0, 1): ((2, F(2)),),
        (1, 2): ((1, F(2)),),
        (0, 2): ((1, F(-2)),),
    })
    rep = validate(bad)
    assert not rep.ok
    jac = [c for c in rep.checks if c["name"] == "jacobi"][0]
    assert not jac["ok"]
    assert jac["witness"] == (0, 1, 2)
    assert "FAIL jacobi" in rep.describe()
    try:
        rep.ensure()
    except ValidationError:
        pass
    else:
        raise AssertionError("ensure() did not raise on failing report")


def _brute_jacobi_witness(alg):
    """First i < j < k in lex order whose cyclic Jacobi sum is nonzero."""
    unit = [[F(int(t == i)) for t in range(alg.n)] for i in range(alg.n)]
    for i, j, k in combinations(range(alg.n), 3):
        terms = (_bracket(alg, _bracket_basis(alg, i, j), unit[k]),
                 _bracket(alg, _bracket_basis(alg, j, k), unit[i]),
                 _bracket(alg, _bracket_basis(alg, k, i), unit[j]))
        if any(map(sum, zip(*terms))):
            return (i, j, k)
    return None


def _corrupted(g, key, first):
    """g declared as one factor, with the first term of [e_i, e_j] replaced."""
    table = dict(g.table)
    table[key] = (first, *g.table.get(key, ())[1:])
    return LieAlgebra(0, [("g", g.n)], table)


def _assert_jacobi_witness_is_brute_force(bad):
    want = _brute_jacobi_witness(bad)
    assert want is not None
    jac = [c for c in validate(bad).checks if c["name"] == "jacobi"][0]
    assert not jac["ok"]
    assert jac["witness"] == want


def test_jacobi_witness_matches_brute_force_triple_loop():
    for name in ("so:5", "su:3"):
        g = catalog.pair_from_name(name).algebra
        keys = sorted(g.table)
        for pos in (0, len(keys) // 3, len(keys) // 2, len(keys) - 1):
            key = keys[pos]
            k, c = g.table[key][0]
            # a scaled constant, and one moved to the next target index
            _assert_jacobi_witness_is_brute_force(_corrupted(g, key, (k, 2 * c)))
            _assert_jacobi_witness_is_brute_force(
                _corrupted(g, key, ((k + 1) % g.n, c)))
    # su:2+su:2 with a bracket moved into, or added across, the other
    # ideal: only ad e_j, only ad [e_i, e_j], resp. only ad e_i reaches the
    # witness column k
    g = catalog.pair_from_name("su:2+su:2").algebra
    for key, first, want in (((3, 4), (0, F(2)), (1, 3, 4)),
                             ((0, 1), (3, F(2)), (0, 1, 4)),
                             ((0, 3), (1, F(1)), (0, 2, 3))):
        bad = _corrupted(g, key, first)
        assert _brute_jacobi_witness(bad) == want
        _assert_jacobi_witness_is_brute_force(bad)
    # two corruptions at once: the witness is the smaller of the triples
    # either one breaks, whichever bracket is met first
    for name in ("so:5", "su:3"):
        g = catalog.pair_from_name(name).algebra
        keys = sorted(g.table)
        for a, b in ((0, len(keys) - 1), (len(keys) // 2, len(keys) // 3)):
            (k, c), (m, d) = g.table[keys[a]][0], g.table[keys[b]][0]
            _assert_jacobi_witness_is_brute_force(_corrupted(
                _corrupted(g, keys[a], (k, 3 * c)), keys[b], ((m + 1) % g.n, d)))
    # a center: torus:1+su:3 with the center bracket [e_0, e_j] made
    # nonzero, the center kept declared
    g = catalog.pair_from_name("torus:1+su:3").algebra
    for j, k in ((1, 2), (4, 8), (8, 1)):
        table = dict(g.table)
        table[(0, j)] = ((k, F(1)),)
        bad = LieAlgebra(g.l, [("su(3)", 8)], table)
        _assert_jacobi_witness_is_brute_force(bad)


def test_killing_rows_match_dense_traces():
    # Killing rows from ad_sparse(), a list of {j: column} dicts with the
    # zero columns left out, against trace(A_i A_j) of the dense ad e_i
    g = catalog.pair_from_name("su:3+so:5").algebra
    ads = g.ad_sparse()
    assert any(len(ad) < g.n for ad in ads)
    dense = [[[ads[i].get(c, {}).get(r, 0) for c in range(g.n)]
              for r in range(g.n)] for i in range(g.n)]
    want = [[sum(A[a][b] * B[b][a] for a in range(g.n) for b in range(g.n))
             for B in dense] for A in dense]
    assert g.killing() == want


def test_validate_declared_simple_but_abelian_factor():
    # a "factor" with no brackets is really extra center
    bad = LieAlgebra(0, [("fake", 2)], {})
    rep = validate(bad)
    assert "killing_negative_definite_per_factor" in _failure_names(rep)


def test_validate_cross_factor_bracket():
    # two declared factors that bracket into each other are not a direct sum
    bad = LieAlgebra(0, [("a", 1), ("b", 1)], {(0, 1): ((0, F(1)),)})
    rep = validate(bad)
    assert "cross_factor_brackets_vanish" in _failure_names(rep)


def test_validate_center_bracket():
    bad = LieAlgebra(1, [], {})
    # constructor forbids entries touching the center only via validate();
    # build a table manually through a 1+1 algebra
    bad2 = LieAlgebra(1, [("x", 1)], {(0, 1): ((1, F(1)),)})
    rep = validate(bad2)
    assert "center_brackets_vanish" in _failure_names(rep)
    assert validate(bad).ok


def test_center_bracket_skips_the_simplicity_check():
    # [e_0, e_1] = e_2 in torus:1+su:2 puts a center column into ad e_1;
    # the simple ideal count of the factor then means nothing, so, as for a
    # cross-factor bracket, factors_simple is not evaluated (it used to
    # fail with witness ('su(2)', 'commutant_dim', 0))
    g = catalog.pair_from_name("torus:1+su:2").algebra
    bad = LieAlgebra(1, [("su(2)", 3)], {**g.table, (0, 1): ((2, F(1)),)})
    assert validate(bad).describe() == "\n".join([
        "FAIL center_brackets_vanish  witness=(0, 1)",
        "ok   cross_factor_brackets_vanish",
        "ok   factor_brackets_closed",
        "FAIL jacobi  witness=(0, 1, 3)",
        "ok   killing_negative_definite_per_factor",
        "ok   factors_simple"])


def test_structure_constant_index_range_errors():
    try:
        LieAlgebra(0, [("x", 2)], {(0, 5): ((0, F(1)),)})
    except ValueError as e:
        assert "out of range" in str(e)
    else:
        raise AssertionError("bad index accepted")
    try:
        LieAlgebra.from_factor_constants(0, [("x", 2, [(0, 1, 7, F(1))])])
    except ValueError as e:
        assert "bad local indices" in str(e)
    else:
        raise AssertionError("bad local target accepted")


def test_to_dict_round_trip():
    g = catalog.pair_from_name("torus:2+su:2").algebra
    doc = g.to_dict()
    back = LieAlgebra.from_dict(doc)
    assert back.l == g.l and back.n == g.n
    assert back.table == g.table
    assert [(nm, s, t) for nm, s, t in back.factors] == g.factors


def test_from_dict_shorthand_factor():
    g = LieAlgebra.from_dict({"center_dim": 1,
                              "factors": [{"type": "su", "n": 2}]})
    assert g.l == 1 and g.n == 4
    assert validate(g).ok
    assert list(_bracket_basis(g, 1, 2)) == [F(0), F(0), F(0), F(2)]


def test_bracket_is_the_bilinear_expansion_of_bracket_basis():
    rng = random.Random(41)
    for name in ("su:3", "so:5", "torus:2+su:2", "torus:1+sp:2"):
        g = catalog.pair_from_name(name).algebra
        for _ in range(3):
            x = [F(rng.randrange(-5, 6), rng.randrange(1, 4))
                 if rng.random() < 0.6 else 0 for _ in range(g.n)]
            y = [F(rng.randrange(-5, 6), rng.randrange(1, 4))
                 if rng.random() < 0.6 else 0 for _ in range(g.n)]
            want = [F(0)] * g.n
            for i in range(g.n):
                for j in range(g.n):
                    want = [w + x[i] * y[j] * b for w, b in
                            zip(want, _bracket_basis(g, i, j))]
            assert _bracket(g, x, y) == want, name
            assert g.bracket_sparse(_sparse(x), _sparse(y)) == _sparse(want), name


def test_validate_names_the_vector_whose_ideal_is_too_small():
    # su(2) + su(2) in its split basis declared as one factor: the ideal of
    # e_0 is the first su(2) only
    g = catalog.pair_from_name("su:2+su:2").algebra
    fused = LieAlgebra(0, [("fused", 6)], g.table)
    simple = [c for c in validate(fused).checks if c["name"] == "factors_simple"]
    assert simple[0]["witness"] == ("fused", 0)


def test_validate_rejects_so4_declared_as_one_factor():
    # every L_ab generates both su(2) ideals of so(4), so only the
    # count of its invariant forms sees that it is not simple
    so4 = LieAlgebra.from_factor_constants(
        0, [("so(4)", 6, catalog._so_constants(4))])
    rep = validate(so4)
    assert _failure_names(rep) == {"factors_simple"}
    simple = [c for c in rep.checks if c["name"] == "factors_simple"]
    assert simple[0]["witness"] == ("so(4)", "commutant_dim", 2)
    for name in ("su:2", "so:5", "sp:2", "su:4"):
        assert validate(catalog.pair_from_name(name).algebra).ok, name


def _sheared(g, shear):
    """g in the basis A e_i = e_i + Σ s e_{i+d}, (d, s) over shear: the
    structure constants become A⁻¹[A e_i, A e_j]."""
    n = g.n
    cols = [{i: 1, **{i + d: s for d, s in shear if i + d < n}}
            for i in range(n)]

    def coords(v):
        # A is unit lower triangular: solve A x = v row by row
        x = {}
        for r in range(n):
            if c := v.get(r, 0) - sum(cols[t].get(r, 0) * x[t] for t in x):
                x[r] = c
        return x
    table = {(i, j): tuple(w.items()) for i in range(n)
             for j in range(i + 1, n)
             if (w := coords(g.bracket_sparse(cols[i], cols[j])))}
    return LieAlgebra(g.l, [(name, stop - start)
                            for name, start, stop in g.factors], table)


def test_uncertified_factors_are_counted_by_their_invariant_forms(
        monkeypatch):
    # in the basis e_i + e_{i+1}/2 + e_{i+7} the Schur certificate proves
    # neither su(3) nor so(5) simple, so validate counts the invariant
    # quadratic forms of each: one, as the dense commutant says; so(4)
    # declared as one factor counts two and fails
    counts = []
    real = liealg._simple_ideal_count

    def spy(*args):
        counts.append(real(*args))
        return counts[-1]
    monkeypatch.setattr(liealg, "_simple_ideal_count", spy)
    so4 = LieAlgebra.from_factor_constants(
        0, [("so(4)", 6, catalog._so_constants(4))])
    for g, want in ((catalog.pair_from_name("su:3").algebra, 1),
                    (catalog.pair_from_name("so:5").algebra, 1), (so4, 2)):
        g = _sheared(g, [(1, F(1, 2)), (7, 1)])
        assert not liealg.schur_certified(g.ideal(range(g.n)).ad_sparse())
        del counts[:]
        rep = validate(g)
        assert counts == [want] == [pairgen.factor_commutant(g, 0, g.n)]
        assert _failure_names(rep) == (set() if want == 1
                                       else {"factors_simple"})


def test_valid_algebras_grow_no_ideal_closure(monkeypatch):
    # a count of one simple ideal already proves the factor simple, so the
    # closures are grown only to name the witness of a failing factor
    calls = []
    real = liealg._closure_witness

    def spy(*args):
        calls.append(args[1])
        return real(*args)
    monkeypatch.setattr(liealg, "_closure_witness", spy)
    for name in ("sphere:7", "su:2+su:3", "sp:2+torus:1", "flag_su3"):
        assert validate(catalog.pair_from_name(name).algebra).ok, name
    assert calls == []
    g = catalog.pair_from_name("su:2+su:2").algebra
    validate(LieAlgebra(0, [("fused", 6)], g.table))
    assert calls == ["fused"]


def _closure(g, vectors):
    """The span of vectors and all their iterated brackets, grown by
    bracketing the whole span with itself until it stops growing."""
    span = Subspace.span(g.n, vectors)
    while True:
        grown = Subspace.span(g.n, span.columns + [
            g.bracket_sparse(u, v) for u, v in combinations(span.columns, 2)])
        if grown.dim == span.dim:
            return span
        span = grown


def _generated_inputs():
    """(label, algebra, columns): every catalog h, every h of the suite and
    every simple factor of su:2..5, so:5..8 and sp:1..3 in unit vectors."""
    names = (["sphere:%d" % n for n in range(2, 11)]
             + ["stiefel:5:2", "stiefel:6:2", "stiefel:6:3", "stiefel:8:2",
                "flag_su3", "example_4_7"])
    for label, pair in ([(name, catalog.pair_from_name(name))
                         for name in names] + pairgen.suite()):
        yield label, pair.algebra, pair.h.columns
    for kind, sizes in (("su", range(2, 6)), ("so", range(5, 9)),
                        ("sp", range(1, 4))):
        for n in sizes:
            g = catalog.build(kind, n)
            for name, start, stop in g.factors:
                yield name, g, [{i: 1} for i in range(start, stop)]


def test_lie_generators_generate_the_input():
    for label, g, columns in _generated_inputs():
        gens = lie_generators(g, columns)
        # a subsequence of the input whose closure spans the input
        it = iter(columns)
        assert all(any(x is c for c in it) for x in gens), label
        assert _closure(g, gens) == Subspace.span(g.n, columns), label
        # no returned column lies in the closure of those before it
        for t in range(1, len(gens)):
            assert not _closure(g, gens[:t]).contains(gens[t]), label
    # so(n) in the catalog basis: n - 1 of n(n - 1)/2
    pair = catalog.pair_from_name("sphere:7")
    assert (pair.h.dim, len(lie_generators(pair.algebra, pair.h.columns))) \
        == (21, 6)


def test_lie_generators_of_a_non_closed_input_terminate(monkeypatch):
    # every pair of closure rows is bracketed once and the closure has at
    # most n rows, so at most n(n - 1)/2 brackets, whatever the input
    rng = random.Random(7)
    for name in ("su:3", "so:5", "torus:1+sp:2"):
        g = catalog.pair_from_name(name).algebra
        calls = []
        real = g.bracket_sparse

        def counted(u, v, real=real, calls=calls):
            calls.append(1)
            return real(u, v)
        monkeypatch.setattr(g, "bracket_sparse", counted)
        for _ in range(5):
            columns = [{i: F(rng.randrange(-3, 4))
                        for i in rng.sample(range(g.n), 2)}
                       for _ in range(rng.randrange(1, 4))]
            columns = [{i: x for i, x in c.items() if x} for c in columns]
            columns = [c for c in columns if c]
            del calls[:]
            gens = lie_generators(g, columns)
            assert len(calls) <= g.n * (g.n - 1) // 2, name
            assert _closure(g, gens) == _closure(g, columns), name


def _scaled(g, lam):
    """g in the basis lam e_i: every structure constant times lam."""
    return LieAlgebra(g.l, [(name, stop - start)
                            for name, start, stop in g.factors],
                      {key: [(k, c * lam) for k, c in terms]
                       for key, terms in g.table.items()})


def _report(rep):
    return rep.checks, rep.warnings


def test_validate_reports_do_not_see_a_scale_of_the_constants():
    # validate runs on the table cleared to integers; a basis lam e_i
    # multiplies every constant by lam, and every check name, flag,
    # witness and warning stays as it was
    from test_cli import FUSED_FACTOR_DOC
    so4 = LieAlgebra.from_factor_constants(
        0, [("so(4)", 6, catalog._so_constants(4))])
    algebras = [catalog.pair_from_name(name).algebra
                for name in ("su:3", "so:5", "sp:2", "torus:1+su:3",
                             "su:2+su:2")]
    algebras += [_sheared(g, [(1, F(1, 2)), (7, 1)])
                 for g in algebras[:2] + [so4]]
    algebras += [so4, HomogeneousPair.from_dict(FUSED_FACTOR_DOC).algebra]
    for name in ("so:5", "su:3"):
        g = catalog.pair_from_name(name).algebra
        keys = sorted(g.table)
        for key in (keys[0], keys[len(keys) // 2]):
            k, c = g.table[key][0]
            algebras += [_corrupted(g, key, (k, 2 * c)),
                         _corrupted(g, key, ((k + 1) % g.n, c))]
    for g in algebras:
        want = _report(validate(g))
        for lam in (F(1, 3), F(2, 5), 7):
            assert _report(validate(_scaled(g, lam))) == want, (
                g.factors, lam)
    # so(4) twice, the fused factor and the eight corrupted tables fail
    assert sum(not validate(g).ok for g in algebras) == 11


def test_integer_tables_are_validated_as_they_are(monkeypatch):
    # an all-integer table is checked in place: no scaled copy is built
    # and its Killing form is computed once, cached on the algebra; a
    # table with Fractions is checked on one scaled copy, and the caller's
    # algebra keeps no cached data from it
    built, grams = [], []
    real_init, real_gram = LieAlgebra.__init__, liealg.trace_gram

    def init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(LieAlgebra, "__init__", init)
    monkeypatch.setattr(liealg, "trace_gram",
                        lambda mats: grams.append(1) or real_gram(mats))
    for name in ("sphere:7", "su:4", "torus:1+sp:2"):
        g = catalog.pair_from_name(name).algebra
        del built[:], grams[:]
        assert validate(g).ok
        g.killing()
        assert (built, grams) == ([], [1]), name
    g = _sheared(catalog.pair_from_name("su:3").algebra, [(1, F(1, 2))])
    del built[:], grams[:]
    assert validate(g).ok
    assert (len(built), grams) == (1, [1])
    assert g._killing is None and g._ad_sparse is None


def test_jacobi_witness_is_filed_without_sorting(monkeypatch):
    # each Jacobi term is filed under its sorted triple by comparisons:
    # the witnesses match the brute-force loop with sorted() unavailable
    import builtins
    real_sorted = builtins.sorted
    g = catalog.pair_from_name("so:5").algebra
    keys = real_sorted(g.table)
    cases = []
    for key in (keys[0], keys[-1]):
        k, c = g.table[key][0]
        cases.append(_corrupted(g, key, ((k + 1) % g.n, c)))
    wants = [_brute_jacobi_witness(bad) for bad in cases]

    def no_sorted(*args, **kwargs):
        raise AssertionError("sorted() called")
    monkeypatch.setattr(builtins, "sorted", no_sorted)
    got = [liealg._jacobi_witness(bad) for bad in cases]
    monkeypatch.setattr(builtins, "sorted", real_sorted)
    assert got == wants and None not in wants


def _schur_cases():
    """(label, ads) for every factor of su:2..6, so:3..9 and sp:1..3, of
    su(3) and so(5) in a sheared basis, and of so(4) as one factor."""
    so4 = LieAlgebra.from_factor_constants(
        0, [("so(4)", 6, catalog._so_constants(4))])
    algebras = [("%s:%d" % (kind, n), catalog.build(kind, n))
                for kind, sizes in (("su", range(2, 7)), ("so", range(3, 10)),
                                    ("sp", range(1, 4)))
                for n in sizes]
    algebras += [("sheared %s:%d" % (kind, n),
                  _sheared(catalog.build(kind, n), [(1, F(1, 2)), (7, 1)]))
                 for kind, n in (("su", 3), ("so", 5))]
    algebras.append(("so(4)", so4))
    for label, g in algebras:
        for name, start, stop in g.factors:
            yield ("%s/%s" % (label, name),
                   g.ideal(range(start, stop)).ad_sparse())


def test_schur_certificate_is_the_two_centralizer_reference():
    # deciding z(z(v)) = Qv as an empty kernel after y -> y_p, and trying
    # the weighted diagonal vector first, certifies exactly what building
    # z(z(v)) in full certifies
    got = {label: liealg.schur_certified(ads)
           for label, ads in _schur_cases()}
    assert got == {label: pairgen.schur_certified_by_two_centralizers(ads)
                   for label, ads in _schur_cases()}
    assert {label for label, ok in got.items() if not ok} == {
        "sheared su:3/su(3)", "sheared so:5/so(5)", "so(4)/so(4)"}


def test_schur_certificate_takes_one_attempt_per_catalog_factor(
        monkeypatch):
    # one attempt is z(v), then the kernel that decides z(z(v)) = Qv: the
    # weighted diagonal vector certifies su(n ≥ 3) at once, e_0 the others
    kernels = []
    real = liealg.intersect_kernels
    monkeypatch.setattr(liealg, "intersect_kernels",
                        lambda *args: kernels.append(1) or real(*args))
    for label, ads in _schur_cases():
        if not label.startswith(("sheared", "so(4)")):
            del kernels[:]
            assert liealg.schur_certified(ads), label
            assert len(kernels) == 2, label
