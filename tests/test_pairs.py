"""Homogeneous pairs: construction, validation, and the h = a ⊕ [h,h] ⊕ b split."""

import copy
from fractions import Fraction

import numpy as np
import pytest

from liecoh import catalog, liealg, linalg, pairs
from liecoh.betti import betti_low
from liecoh.ce import betti_ce
from liecoh.invariant_forms import psi_analysis
from liecoh.koszul import betti_koszul
from liecoh.linalg import Subspace, full_subspace, kernel_basis, transpose
from liecoh.pairs import (HomogeneousPair, decompose, generator_order,
                          validate_pair)

import pairgen
from pairgen import eye, intersect

F = Fraction


def test_decompose_sphere_3():
    pair = catalog.build("sphere", 3)
    assert decompose(pair).dims() == {
        "dim_h": 3, "dim_zh": 0, "dim_hh": 3, "dim_h_cap_gg": 3,
        "dim_a": 0, "dim_b": 0, "dim_a_fixed": 0, "dim_a_moved": 0, "r0": 0}


def test_decompose_example_4_7():
    pair = catalog.build("example_4_7")
    assert decompose(pair).dims() == {
        "dim_h": 1, "dim_zh": 1, "dim_hh": 0, "dim_h_cap_gg": 1,
        "dim_a": 1, "dim_b": 0, "dim_a_fixed": 0, "dim_a_moved": 1, "r0": 2}


def test_decompose_example_4_7_without_generator():
    base = catalog.build("example_4_7")
    bare = HomogeneousPair(base.algebra, base.h_basis)
    d = decompose(bare).dims()
    assert d["dim_a"] == 1 and d["dim_a_fixed"] == 1 and d["dim_a_moved"] == 0
    assert d["r0"] == 2


def test_decompose_h_equals_g():
    g = catalog.pair_from_name("torus:2+su:2").algebra
    pair = HomogeneousPair(g, eye(g.n))
    assert decompose(pair).dims() == {
        "dim_h": 5, "dim_zh": 2, "dim_hh": 3, "dim_h_cap_gg": 3,
        "dim_a": 0, "dim_b": 2, "dim_a_fixed": 0, "dim_a_moved": 0, "r0": 0}


def test_decompose_tilted_b_is_killing_orthogonal():
    # g = R + su(2) + su(2), h = span(e0 + e1, e4): h∩[g,g] is the line e4,
    # and the Killing-orthogonal of it in h is the tilted line e0 + e1
    g = catalog.pair_from_name("torus:1+su:2+su:2").algebra
    pair = HomogeneousPair.from_vectors(g, [[1, 1, 0, 0, 0, 0, 0],
                                            [0, 0, 0, 0, 1, 0, 0]])
    dec = decompose(pair)
    assert dec.hcapgg == Subspace.span(7, [{4: 1}])
    assert dec.b == Subspace.span(7, [{0: 1, 1: 1}])
    assert dec.r0 == 0


def test_decompose_trivial_h():
    g = catalog.build("su", 2)
    d = decompose(HomogeneousPair(g, [])).dims()
    assert d["dim_h"] == 0 and d["r0"] == 0


def test_validate_catalog_pairs():
    for name in ("sphere:2", "sphere:4", "example_4_7", "flag_su3",
                 "stiefel:5:2"):
        rep = validate_pair(catalog.pair_from_name(name))
        assert rep.ok, "%s: %s" % (name, rep.describe())


def test_generator_must_preserve_each_factor():
    g = catalog.pair_from_name("su:2+su:2").algebra
    swap = [[F(0)] * 6 for _ in range(6)]
    for i in range(3):
        swap[i + 3][i] = F(1)
        swap[i][i + 3] = F(1)
    rep = validate_pair(HomogeneousPair(g, [], [swap]))
    failed = {c["name"]: c["witness"] for c in rep.failures()}
    assert failed == {"generator_preserves_each_factor": (0, "su(2)")}


def test_generator_must_fix_center_pointwise():
    g = catalog.pair_from_name("torus:1+su:2").algebra
    gamma = eye(4)
    gamma[0][0] = F(-1)
    rep = validate_pair(HomogeneousPair(g, [], [gamma]))
    failed = {c["name"]: c["witness"] for c in rep.failures()}
    assert failed == {"generator_fixes_center_pointwise": (0, 0)}


def test_generator_must_be_automorphism():
    g = catalog.build("su", 2)
    bad = eye(3)
    bad[0][0] = F(2)   # scaling one axis breaks the bracket
    rep = validate_pair(HomogeneousPair(g, [], [bad]))
    assert not rep.ok
    assert any(c["name"] == "generator_is_automorphism" for c in rep.failures())


def test_generator_must_preserve_subalgebra():
    g = catalog.build("su", 2)
    # 180-degree rotation about the e0 axis: an automorphism moving e2
    gamma = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    h = [[0], [0], [1]]   # h = span(e2), sent to -e2: preserved
    ok_rep = validate_pair(HomogeneousPair(g, h, [gamma]))
    assert ok_rep.ok
    h2 = [[1], [1], [0]]  # span(e0+e1) maps to span(e0-e1)
    rep = validate_pair(HomogeneousPair(g, h2, [gamma]))
    assert any(c["name"] == "generator_preserves_subalgebra"
               for c in rep.failures())


def test_non_closed_subspace_fails_validation():
    g = catalog.build("su", 2)
    rep = validate_pair(HomogeneousPair(g, [[1, 0], [0, 1], [0, 0]]))
    assert any(c["name"] == "h_bracket_closed" for c in rep.failures())


def test_non_closed_h_is_named_by_every_reader_of_h_data():
    # h = span(e_0, e_1) in su(2): the ad(h) table, S²(h*)^H, the Koszul
    # method and the decomposition all name the missing closure
    su2 = catalog.build("su", 2)
    open_pair = HomogeneousPair.from_vectors(su2, [[1, 0, 0], [0, 1, 0]])
    assert not open_pair.h_closed
    for read in (lambda: open_pair.h_ad(0), lambda: open_pair.h_forms,
                 lambda: betti_koszul(open_pair, validate=False),
                 lambda: decompose(open_pair)):
        with pytest.raises(ValueError,
                           match="^not a subalgebra: h is not bracket-closed$"):
            read()


def _columns(m):
    """The columns of a square matrix given by rows, as {row: value} dicts."""
    return [{i: row[j] for i, row in enumerate(m) if row[j]}
            for j in range(len(m))]


def test_generator_order():
    assert generator_order(_columns(eye(4))) == 1
    flip = eye(3)
    flip[1][1] = F(-1)
    flip[2][2] = F(-1)
    assert generator_order(_columns(flip)) == 2
    rot = [[0, -1], [1, 0]]
    assert generator_order(_columns(rot)) == 4
    irrational_angle = [[F(3, 5), F(-4, 5), 0],
                        [F(4, 5), F(3, 5), 0],
                        [0, 0, 1]]
    assert generator_order(_columns(irrational_angle)) is None


def test_generator_columns_are_built_once_from_the_matrices():
    pair = catalog.build("example_4_7")
    (gamma,) = pair.generators
    assert pair.generator_columns == [_columns(gamma)]


def test_infinite_order_generator_warns_but_validates():
    g = catalog.build("su", 2)
    rot = [[F(3, 5), F(-4, 5), 0],
           [F(4, 5), F(3, 5), 0],
           [0, 0, 1]]
    rep = validate_pair(HomogeneousPair(g, [], [rot]))
    assert rep.ok
    assert len(rep.warnings) == 1 and "order" in rep.warnings[0]


def test_round_trip_with_generator():
    pair = catalog.build("example_4_7")
    back = HomogeneousPair.from_dict(pair.to_dict())
    assert back.algebra.table == pair.algebra.table
    assert back.h == pair.h
    assert len(back.generators) == 1
    assert back.generators == pair.generators
    assert validate_pair(back).ok


def test_example_4_7_generator_matrix():
    pair = catalog.build("example_4_7")
    gen = pair.generators[0]
    want = eye(5)
    want[3][3] = F(-1)
    want[4][4] = F(-1)
    assert gen == want


def test_constructor_rejects_bad_shapes():
    g = catalog.build("su", 2)
    try:
        HomogeneousPair(g, [[1, 0], [0, 1]])   # 2 rows, need 3
    except ValueError as e:
        assert "rows" in str(e)
    else:
        raise AssertionError("wrong row count accepted")
    try:
        HomogeneousPair(g, [[1, 2], [0, 0], [0, 0]])  # dependent columns
    except ValueError:
        pass
    else:
        raise AssertionError("dependent columns accepted")
    try:
        HomogeneousPair(g, [[1], [0, 1], [0, 0]])  # ragged rows
    except ValueError as e:
        assert "differ in length" in str(e)
    else:
        raise AssertionError("ragged rows accepted")
    for gen in ([[1, 0], [0, 1]], [], [[1, 0, 0], [0, 1], [0, 0, 1]]):
        try:
            HomogeneousPair(g, [], [gen])
        except ValueError as e:
            assert "generator must be 3 x 3" in str(e)
        else:
            raise AssertionError("bad generator shape accepted")
    for vec in ([0, 0], [0, 0, 1, 0]):
        try:
            HomogeneousPair.from_vectors(g, [vec])
        except ValueError as e:
            assert "expected 3" in str(e)
        else:
            raise AssertionError("basis vector of length %d accepted" % len(vec))


def test_from_vectors_matches_matrix_constructor():
    g = catalog.build("su", 3)
    vecs = [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]]
    a = HomogeneousPair.from_vectors(g, vecs)
    # numpy arrays are accepted as rows; the public views are nested lists
    b = HomogeneousPair(g, np.array(vecs, dtype=object).T,
                        [np.array(eye(8), dtype=object)])
    assert a.h == b.h
    assert a.h_basis == b.h_basis == [list(row) for row in zip(*vecs)]
    assert b.generators == [eye(8)]
    assert all(type(x) is F for row in b.h_basis + b.generators[0]
               for x in row)


def _catalog_pairs():
    names = ["sphere:%d" % n for n in range(2, 8)] + [
        "stiefel:5:2", "stiefel:6:2", "flag_su3", "example_4_7", "su:3",
        "so:5+su:2+torus:1"]
    return [(name, catalog.pair_from_name(name)) for name in names]


def test_h_closed_is_the_closure_test():
    # one closure pass at construction answers whether h is closed, which
    # every bracket of two basis vectors of h lying in h decides as well
    su2 = catalog.build("su", 2)
    open_pair = HomogeneousPair(su2, [[1, 0], [0, 1], [0, 0]])
    cases = _catalog_pairs() + pairgen.suite() + [("open", open_pair)]
    for label, pair in cases:
        _, every_bracket = pairgen.center_and_derived_by_every_bracket(
            pair.algebra, pair.h)
        assert pair.h_closed == pair.h.contains_subspace(every_bracket), label
        assert pair.h_lie_generators == [pair.h.columns[t]
                                         for t in pair.h_lie_indices], label
    assert not open_pair.h_closed
    assert [c["ok"] for c in validate_pair(open_pair).checks
            if c["name"] == "h_bracket_closed"] == [False]


def test_betti_methods_validate_a_pair_once(monkeypatch):
    calls = []
    real = pairs.validate
    monkeypatch.setattr(pairs, "validate",
                        lambda alg: calls.append(alg) or real(alg))
    pair = catalog.pair_from_name("example_4_7")
    betti_low(pair)
    betti_koszul(pair)
    betti_ce(pair)
    assert len(calls) == 1
    # a new pair object validates anew: nothing is shared between pairs
    betti_low(catalog.pair_from_name("example_4_7"))
    assert len(calls) == 2


def _psi_view(space):
    return (space.form_basis, space.psi_matrix, space.rank_psi, space.dim_N,
            space.dim_C)


def test_methods_on_one_pair_match_fresh_pairs():
    # betti_low, then betti_koszul, then psi_analysis on one pair object
    # read its shared H-data; each matches the same call on a fresh pair,
    # and the shared S²(h*)^H is left as it was built
    for label, pair in _catalog_pairs() + pairgen.suite()[:10]:
        def fresh():
            return HomogeneousPair.from_dict(pair.to_dict())
        low = betti_low(pair).to_dict(explain=True)
        forms = pair.h_forms
        before = copy.deepcopy(forms.form_basis)
        assert low == betti_low(fresh()).to_dict(explain=True), label
        assert (betti_koszul(pair).to_dict(explain=True)
                == betti_koszul(fresh()).to_dict(explain=True)), label
        assert (_psi_view(psi_analysis(pair))
                == _psi_view(psi_analysis(fresh()))), label
        assert pair.h_forms is forms and forms.form_basis == before, label
        assert forms.psi_matrix is None, label


def test_decompose_returns_h_when_h_lies_in_the_derived_algebra():
    for label, pair in _catalog_pairs() + pairgen.suite():
        dec = decompose(pair)
        inside = all(i >= pair.algebra.l for c in pair.h.columns for i in c)
        assert (dec.hcapgg is pair.h) == inside, label
        assert dec.hcapgg == intersect(
            pair.h, Subspace.span(pair.algebra.n, [
                {t: 1} for t in range(pair.algebra.l, pair.algebra.n)])), label


def _torus_su2(units, generators=()):
    """torus:1+su:2 (e0 central, e1..e3 a su(2)) with h spanned by the
    given unit vectors."""
    alg = catalog.pair_from_name("torus:1+su:2").algebra
    return HomogeneousPair.from_vectors(
        alg, [[int(i == t) for i in range(alg.n)] for t in units],
        generators)


def _zero(s):
    return Subspace.from_columns(s.ambient_dim, [], [])


# (what fails, h's unit vectors, generators, the pairs function to patch,
# which of its calls in decompose, what that call returns instead).  In
# decompose, kernel_in cuts a, h∩[g,g], b and a_fixed in that order, and
# _image meets a, b, [h,h] and h∩[g,g] per generator.
_BROKEN_DECOMPOSITIONS = [
    ("h = z(h) ⊕ [h,h]", range(4), (), "intersect_kernels", 0, _zero),
    ("z(h) = a ⊕ b", range(4), (), "kernel_in", 2, _zero),
    # b = the line of e1: a ⊕ b has the dimension of z(h) = Q e0, but b
    # lies in [h,h], outside z(h)
    ("z(h) = a ⊕ b", range(4), (), "kernel_in", 2,
     lambda s: Subspace.span(s.ambient_dim, [{1: 1}])),
    ("a = a_fixed ⊕ a_moved", (0, 1), (), "kernel_in", 3, _zero),
    # h∩[g,g] = h: b does not change, as K vanishes on the center
    ("r0 = dim g/([g,g]+h)", range(4), (), "kernel_in", 1,
     lambda s: full_subspace(s.ambient_dim)),
    # a generator negating the center is no identity on b = Q e0
    ("generator 0 acts as identity on b", range(4),
     [[[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]],
     None, None, None),
] + [("generator 0 preserves %s" % name, range(4), [eye(4)], "_image", k,
      lambda s: full_subspace(s.ambient_dim))
     for k, name in enumerate(["a", "b", "[h,h]", "h∩[g,g]"])]


@pytest.mark.parametrize(
    "what,units,generators,name,call,result", _BROKEN_DECOMPOSITIONS,
    ids=["h_split", "zh_split", "b_outside_zh", "a_split", "r0",
         "identity_on_b", "preserves_a", "preserves_b", "preserves_hh",
         "preserves_hcapgg"])
def test_decompose_fails_on_each_broken_invariant(
        monkeypatch, what, units, generators, name, call, result):
    # one piece of the decomposition replaced, so that exactly one of the
    # invariants decompose re-checks fails, with its message
    pair = _torus_su2(units, generators)
    if name is not None:
        real, calls = getattr(pairs, name), []

        def patched(*args):
            calls.append(args)
            out = real(*args)
            return result(out) if len(calls) == call + 1 else out
        monkeypatch.setattr(pairs, name, patched)
    with pytest.raises(ValueError) as err:
        decompose(pair)
    assert str(err.value) == "decomposition invariant failed: " + what
    monkeypatch.undo()
    if name is not None:    # unpatched, the same pair decomposes
        decompose(_torus_su2(units, generators))


def _number_strings(doc):
    """The rationals of a pair document, each a string."""
    if isinstance(doc, dict):
        return sum((_number_strings(v) for k, v in doc.items()
                    if k != "name"), [])
    if isinstance(doc, list):
        return sum((_number_strings(v) for v in doc), [])
    return [doc] if isinstance(doc, str) else []


def test_decompose_matches_every_bracket_on_z_and_derived():
    # z(h) and [h,h] read off h_ad over the Lie generators of h are the
    # ones all dim(h)(dim(h) − 1)/2 brackets give
    g = catalog.pair_from_name("su:2+su:2").algebra
    diagonal = HomogeneousPair.from_vectors(g, [
        [1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]])
    cases = _catalog_pairs() + pairgen.suite() + [
        ("torus:3", catalog.pair_from_name("torus:3")),
        ("su:2+su:2/diag", diagonal)]
    for label, pair in cases:
        dec = decompose(pair)
        want = pairgen.center_and_derived_by_every_bracket(pair.algebra,
                                                           pair.h)
        assert (dec.zh, dec.hh) == want, label


def test_from_dict_parses_each_document_entry_once(monkeypatch):
    # every outermost call of exact or fr, in any module, that reads a
    # string (exact reads a non-integer through fr: one parse)
    parsed, fr_calls, depth = [], [], []
    for name in ("exact", "fr"):
        real = getattr(linalg, name)

        def counted(x, real=real, name=name):
            if isinstance(x, str) and not depth:
                parsed.append(x)
            if name == "fr":
                fr_calls.append(x)
            depth.append(name)
            try:
                return real(x)
            finally:
                depth.pop()
        for module in (linalg, liealg, pairs):
            monkeypatch.setattr(module, name, counted)
    # integers only; a component generator; rationals in h
    sphere, example, twisted = (catalog.emit("sphere:7"),
                                catalog.emit("example_4_7"),
                                pairgen.twisted_diagonal_pair(0).to_dict())
    assert any("/" in x for x in _number_strings(twisted))
    for doc in (sphere, example, twisted):
        del parsed[:], fr_calls[:]
        HomogeneousPair.from_dict(doc)
        assert sorted(parsed) == sorted(_number_strings(doc))
        if doc is sphere:
            # every entry is an integer string: no Fraction is built
            assert len(parsed) > 700 and fr_calls == []


def _preserves_each_factor_by_spans(pair):
    """The witness (gi, name) of the first generator and factor whose
    images of the factor's unit vectors do not span the factor, as two
    Subspace.span eliminations compare them."""
    n = pair.algebra.n
    return next(
        ((gi, name) for gi, cols in enumerate(pair.generator_columns)
         for name, start, stop in pair.algebra.factors
         if Subspace.span(n, cols[start:stop])
         != Subspace.span(n, [{t: 1} for t in range(start, stop)])), None)


def _factor_check(pair):
    check, = [c for c in validate_pair(pair).checks
              if c["name"] == "generator_preserves_each_factor"]
    return check["witness"] if not check["ok"] else None


def test_factor_preservation_is_read_off_supports():
    # each gamma e_t, t in a factor, lies in the factor and the block has
    # full rank: the witness the span equality gives, on the suite's
    # generators (the identity where a pair has none) and on corrupted
    # ones, a column leaking into another factor or the center and a
    # singular block
    cases = _catalog_pairs() + pairgen.suite() + [
        ("su_normalizer:3", pairgen.su_torus_normalizer(3))]
    corrupted = 0
    for label, pair in cases:
        alg = pair.algebra
        gens = pair.generators or [eye(alg.n)]
        variants = [gens]
        for name, start, stop in alg.factors:
            outside = [t for t in range(alg.n) if not start <= t < stop]
            for g in gens:
                if outside:
                    leak = copy.deepcopy(g)
                    leak[outside[-1]][stop - 1] += 1
                    variants.append([leak])
                if stop - start > 1:
                    singular = copy.deepcopy(g)
                    for row in singular:
                        row[start] = row[start + 1]
                    variants.append(gens[:1] + [singular])
        for gens in variants:
            moved = HomogeneousPair(alg, pair.h_basis, gens)
            want = _preserves_each_factor_by_spans(moved)
            assert _factor_check(moved) == want, label
            corrupted += want is not None
    assert corrupted > 50


def _kernel_in_calls(monkeypatch):
    """Every (space, maps) decompose and _block_support hand to
    linalg.kernel_in, with its result."""
    from liecoh import betti
    seen = []
    for module in (pairs, betti):
        real = module.kernel_in

        def spy(space, maps, real=real):
            maps = list(maps)
            seen.append((space, maps, real(space, maps)))
            return seen[-1][2]
        monkeypatch.setattr(module, "kernel_in", spy)
    return seen


def test_supported_subspaces_are_intersections_with_unit_vectors(
        monkeypatch):
    # on every subspace decompose and _block_support cut over the suite,
    # the catalog ladder and the cochain draws of seeds 1-10, kernel_in
    # gives the intersection with the common kernel of the maps (for the
    # coordinate projections, the span of the unit vectors they keep),
    # and the space itself when every map vanishes on it
    import os
    import random
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    cases = pairgen.suite() + [(name, catalog.pair_from_name(name))
                               for name, _ in workloads.LADDER]
    for seed in range(1, 11):
        cases += workloads._cochain_draw(random.Random(seed), catalog,
                                         HomogeneousPair)
    seen = _kernel_in_calls(monkeypatch)
    for label, pair in cases:
        betti_low(HomogeneousPair.from_dict(pair.to_dict()))
    # four per decompose (a, h∩[g,g], b, a_fixed), one per factor
    # h∩[g,g] reaches
    assert len(seen) > 4 * len(cases)
    inside = projections = 0
    for space, maps, got in seen:
        n = space.ambient_dim
        kernel = full_subspace(n)
        for m in maps:
            kernel = intersect(kernel, kernel_basis(
                list(transpose(m).values()), n))
        if all(col == {j: 1} for m in maps for j, col in m.items()):
            # a projection onto coordinates keeps the unit vectors off them
            projections += 1
            assert kernel == Subspace.span(n, [
                {t: 1} for t in range(n) if all(t not in m for m in maps)])
        assert got == intersect(space, kernel)
        assert (got is space) == kernel.contains_subspace(space)
        inside += got is space
    assert 0 < inside < len(seen)
    assert 0 < projections < len(seen)
