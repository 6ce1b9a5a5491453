"""Homogeneous pairs: construction, validation, and the h = a ⊕ [h,h] ⊕ b split."""

import copy
import hashlib
import json
from fractions import Fraction
from itertools import chain

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
    bare = HomogeneousPair(base.algebra, base.h.columns)
    d = decompose(bare).dims()
    assert d["dim_a"] == 1 and d["dim_a_fixed"] == 1 and d["dim_a_moved"] == 0
    assert d["r0"] == 2


def test_decompose_h_equals_g():
    g = catalog.pair_from_name("torus:2+su:2").algebra
    pair = HomogeneousPair.from_vectors(g, eye(g.n))
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
    rep = validate_pair(HomogeneousPair.from_vectors(g, [], [swap]))
    failed = {c["name"]: c["witness"] for c in rep.failures()}
    assert failed == {"generator_preserves_each_factor": (0, "su(2)")}


def test_generator_must_fix_center_pointwise():
    g = catalog.pair_from_name("torus:1+su:2").algebra
    gamma = eye(4)
    gamma[0][0] = F(-1)
    rep = validate_pair(HomogeneousPair.from_vectors(g, [], [gamma]))
    failed = {c["name"]: c["witness"] for c in rep.failures()}
    assert failed == {"generator_fixes_center_pointwise": (0, 0)}


def test_generator_must_be_automorphism():
    g = catalog.build("su", 2)
    bad = eye(3)
    bad[0][0] = F(2)   # scaling one axis breaks the bracket
    rep = validate_pair(HomogeneousPair.from_vectors(g, [], [bad]))
    assert not rep.ok
    assert any(c["name"] == "generator_is_automorphism" for c in rep.failures())


def test_generator_must_preserve_subalgebra():
    g = catalog.build("su", 2)
    # 180-degree rotation about the e0 axis: an automorphism moving e2
    gamma = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    h = [{2: 1}]   # h = span(e2), sent to -e2: preserved
    ok_rep = validate_pair(HomogeneousPair(g, h, [_columns(gamma)]))
    assert ok_rep.ok
    h2 = [{0: 1, 1: 1}]  # span(e0+e1) maps to span(e0-e1)
    rep = validate_pair(HomogeneousPair(g, h2, [_columns(gamma)]))
    assert any(c["name"] == "generator_preserves_subalgebra"
               for c in rep.failures())


def test_non_closed_subspace_fails_validation():
    g = catalog.build("su", 2)
    rep = validate_pair(HomogeneousPair(g, [{0: 1}, {1: 1}]))
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
    # from_dict reads the document's generator rows into columns
    doc = catalog.emit("example_4_7")
    (gamma,) = doc["component_generators"]
    assert HomogeneousPair.from_dict(doc).generator_columns == [
        _columns([[int(x) for x in row] for row in gamma])]


def test_infinite_order_generator_warns_but_validates():
    g = catalog.build("su", 2)
    rot = [[F(3, 5), F(-4, 5), 0],
           [F(4, 5), F(3, 5), 0],
           [0, 0, 1]]
    rep = validate_pair(HomogeneousPair.from_vectors(g, [], [rot]))
    assert rep.ok
    assert len(rep.warnings) == 1 and "order" in rep.warnings[0]


def test_round_trip_with_generator():
    pair = catalog.build("example_4_7")
    back = HomogeneousPair.from_dict(pair.to_dict())
    assert back.algebra.table == pair.algebra.table
    assert back.h == pair.h
    assert len(back.generator_columns) == 1
    assert back.generator_columns == pair.generator_columns
    assert validate_pair(back).ok


def test_example_4_7_generator_matrix():
    # to_dict writes the generator's rows from its columns
    pair = catalog.build("example_4_7")
    want = [[str(int(i == j)) for j in range(5)] for i in range(5)]
    want[3][3] = want[4][4] = "-1"
    assert pair.to_dict()["component_generators"] == [want]


def test_constructor_rejects_bad_shapes():
    # the document's nested lists are shaped by from_vectors: n entries per
    # basis vector, n rows of n entries per generator
    g = catalog.build("su", 2)
    with pytest.raises(ValueError, match="^basis columns are dependent$"):
        HomogeneousPair.from_vectors(g, [[1, 0, 0], [2, 0, 0]])
    for gen in ([[1, 0], [0, 1]], [], [[1, 0, 0], [0, 1], [0, 0, 1]],
                [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1]]):
        with pytest.raises(ValueError, match="^generator must be 3 x 3$"):
            HomogeneousPair.from_vectors(g, [], [gen])
    for vec in ([0, 0], [0, 0, 1, 0]):
        with pytest.raises(ValueError, match="expected 3$"):
            HomogeneousPair.from_vectors(g, [vec])


def test_columns_constructor_checks_its_input():
    # a row outside 0..n-1, a generator without n columns and dependent h
    # columns are rejected; values go through exact and zeros are dropped
    g = catalog.build("su", 2)
    for bad in ({-1: 1}, {3: 1}, {0: 1, 3: 0}):
        with pytest.raises(ValueError, match="^column row outside 0..2$"):
            HomogeneousPair(g, [bad])
        with pytest.raises(ValueError, match="^column row outside 0..2$"):
            HomogeneousPair(g, [], [[bad, {1: 1}, {2: 1}]])
    for gen in ([{0: 1}, {1: 1}], [{t: 1} for t in range(4)], []):
        with pytest.raises(ValueError, match="^generator must be 3 x 3$"):
            HomogeneousPair(g, [], [gen])
    for h in ([{0: 1, 1: 2}, {0: -2, 1: -4}], [{}], [{2: 0}]):
        with pytest.raises(ValueError, match="^basis columns are dependent$"):
            HomogeneousPair(g, h)
    pair = HomogeneousPair(g, [{2: "1", 0: 0}], [
        [{0: -1}, {1: "-1", 2: F(0)}, {2: F(2, 2)}]])
    assert pair.h.columns == [{2: 1}]
    assert pair.generator_columns == [[{0: -1}, {1: -1}, {2: 1}]]
    assert all(type(x) is int for col in pair.generator_columns[0]
               for x in col.values())


def test_from_vectors_matches_matrix_constructor():
    # the nested-list entries (lists or numpy rows), the document and the
    # columns give one pair
    g = catalog.build("su", 3)
    vecs = [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]]
    a = HomogeneousPair.from_vectors(g, np.array(vecs, dtype=object),
                                     [np.array(eye(8), dtype=object)])
    b = HomogeneousPair.from_dict(a.to_dict())
    c = HomogeneousPair(g, [{0: 1}, {1: 1}], [[{t: 1} for t in range(8)]])
    for pair in (a, b):
        assert pair.h == c.h and pair.h.columns == c.h.columns
        assert pair.generator_columns == c.generator_columns
        assert pair.to_dict() == c.to_dict()
    for label, pair in _catalog_pairs() + pairgen.suite():
        doc = pair.to_dict()
        for other in (HomogeneousPair.from_dict(doc),
                      HomogeneousPair(pair.algebra, pair.h.columns,
                                      pair.generator_columns)):
            assert other.h.columns == pair.h.columns, label
            assert other.generator_columns == pair.generator_columns, label
            assert other.to_dict() == doc, label


# sha256 prefixes of the catalog documents, as emitted before the pair
# held its input as columns only: every catalog name the suite builds on,
# the pairs in so(4)'s split form (sphere:3, stiefel:4:k) and two sums
# that carry a component generator
_EMITTED = {
    "example_4_7": "16f9e98fd57bc4cc",
    "example_4_7+sphere:2": "d2466d31748b2dc7",
    "flag_su3": "cc71b23addfcaf49",
    "so:5": "423fb869337fde06",
    "so:5+su:2+torus:1": "3e59996c8602b5cb",
    "so:5+torus:1": "6720714cc2b4431a",
    "sp:2": "1e2d84a19918269b",
    "sphere:2": "36845b6e2dc5c9bc",
    "sphere:3": "cb769b472fa5922f",
    "sphere:3+example_4_7": "5baadc2da8b08e12",
    "sphere:4": "1eb194e96b852acb",
    "sphere:5": "0020609b0e5d4c22",
    "sphere:6": "0bb4d7a345d0e7c8",
    "sphere:7": "91758d8083d5347c",
    "stiefel:4:1": "cb769b472fa5922f",
    "stiefel:4:2": "28a644592374a8f9",
    "stiefel:5:2": "f784c90eb93a33e3",
    "stiefel:6:2": "3d1ff30a195d53a7",
    "su:2": "fc06a4a4abaa569a",
    "su:2+su:2": "a4b2ebc77135c5a1",
    "su:2+su:2+su:2": "2ab1bfabca9470fe",
    "su:2+su:3": "957a9fb9d5178652",
    "su:3": "02c80ef27067ffc3",
    "torus:1+su:2": "d817ac8f96ff2a29",
    "torus:1+su:3": "4cdc729607d19859",
    "torus:2": "724a115746acff34",
    "torus:2+su:2": "af98e7a95e572573",
    "torus:3": "fa20ef9f3371c356",
}


def test_catalog_documents_are_unchanged():
    for name, digest in _EMITTED.items():
        text = json.dumps(catalog.emit(name), indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, name


def _catalog_pairs():
    names = ["sphere:%d" % n for n in range(2, 8)] + [
        "stiefel:5:2", "stiefel:6:2", "flag_su3", "example_4_7", "su:3",
        "so:5+su:2+torus:1"]
    return [(name, catalog.pair_from_name(name)) for name in names]


def test_h_closed_is_the_closure_test():
    # one closure pass at construction answers whether h is closed, which
    # every bracket of two basis vectors of h lying in h decides as well
    su2 = catalog.build("su", 2)
    open_pair = HomogeneousPair(su2, [{0: 1}, {1: 1}])
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
    return Subspace(s.ambient_dim, [], [])


# (what fails, h's unit vectors, generators, the pairs function to patch,
# which of its calls in decompose, what that call returns instead).  In
# decompose, kernel_in cuts a, h∩[g,g], b and a_fixed in that order, and
# _image meets a, [h,h] and h∩[g,g] per generator.
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
     for k, name in enumerate(["a", "[h,h]", "h∩[g,g]"])]


@pytest.mark.parametrize(
    "what,units,generators,name,call,result", _BROKEN_DECOMPOSITIONS,
    ids=["h_split", "zh_split", "b_outside_zh", "a_split", "r0",
         "identity_on_b", "preserves_a", "preserves_hh",
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
    # string (exact reads a non-integer through fr: one parse); each edge
    # reader (the structure constants, h's columns, each generator's
    # columns) parses each distinct string once, so no entry is parsed
    # twice by one reader and a document of few distinct strings costs
    # few parses however many entries it has
    parsed, fr_calls, depth, readers = [], [], [], []
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
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    def reader(real=linalg.exact_reader):
        readers.append(1)
        return real()
    for module in (liealg, pairs):
        monkeypatch.setattr(module, "exact_reader", reader)
    # integers only; a component generator; rationals in h
    sphere, example, twisted = (catalog.emit("sphere:7"),
                                catalog.emit("example_4_7"),
                                pairgen.twisted_diagonal_pair(0).to_dict())
    assert any("/" in x for x in _number_strings(twisted))
    for doc in (sphere, example, twisted):
        del parsed[:], fr_calls[:], readers[:]
        HomogeneousPair.from_dict(doc)
        # one reader for the constants, one for h, one per generator, each
        # parsing the distinct strings of its part once
        parts = [doc["algebra"], doc["subalgebra"],
                 *doc["component_generators"]]
        assert len(readers) == len(parts)
        assert sorted(parsed) == sorted(
            chain(*(set(_number_strings(part)) for part in parts)))
        if doc is sphere:
            # "0" and "1" in h, "1" and "-1" in the constants, and no
            # Fraction is built
            assert len(_number_strings(doc)) > 700 and len(parsed) <= 4
            assert fr_calls == []


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
        gens = pair.generator_columns or [[{t: 1} for t in range(alg.n)]]
        variants = [gens]
        for name, start, stop in alg.factors:
            outside = [t for t in range(alg.n) if not start <= t < stop]
            for g in gens:
                if outside:
                    leak = copy.deepcopy(g)
                    col = leak[stop - 1]
                    col[outside[-1]] = col.get(outside[-1], 0) + 1
                    variants.append([leak])
                if stop - start > 1:
                    singular = copy.deepcopy(g)
                    singular[start] = singular[start + 1]
                    variants.append(gens[:1] + [singular])
        for gens in variants:
            moved = HomogeneousPair(alg, pair.h.columns, gens)
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
