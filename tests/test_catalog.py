"""Catalog builders: shapes, known cohomology, serialization, input errors."""

import json
import time
from fractions import Fraction

import numpy as np

from liecoh import catalog
from liecoh.betti import betti_low
from liecoh.koszul import betti_koszul
from liecoh.liealg import MAX_DIM, LieAlgebra, validate
from liecoh.pairs import HomogeneousPair, validate_pair
from liecoh.linalg import Subspace, coordinates


F = Fraction


def _free(algebra):
    return HomogeneousPair(algebra, [])


def test_entries_listing():
    names = [e.name for e in catalog.entries()]
    assert names == sorted(names)
    assert "sphere" in names and "example_4_7" in names
    for e in catalog.entries():
        desc = e.describe()
        assert desc.startswith(e.name)
        assert e.description in desc


def test_sphere_3_shape():
    pair = catalog.build("sphere", 3)
    g = pair.algebra
    assert g.l == 0
    assert [name for name, _, _ in g.factors] == ["su(2)", "su(2)"]
    assert pair.h.dim == 3
    assert pair.h_closed
    assert validate_pair(pair).ok


def test_torus_is_bare_abelian_algebra():
    t2 = catalog.build("torus", 2)
    assert isinstance(t2, LieAlgebra)
    assert t2.l == 2 and t2.factors == []


def test_example_4_7_shape():
    pair = catalog.build("example_4_7")
    g = pair.algebra
    assert g.l == 2 and g.n == 5
    assert [name for name, _, _ in g.factors] == ["su(2)"]
    assert pair.h.columns == [{3: 1}]
    assert pair.generator_columns == [
        [{0: 1}, {1: 1}, {2: 1}, {3: -1}, {4: -1}]]


def test_so4_splits_into_two_su2():
    so4 = catalog.build("so", 4)
    assert so4.l == 0
    assert [name for name, _, _ in so4.factors] == ["su(2)", "su(2)"]
    assert validate(so4).ok


def test_so2_is_abelian():
    so2 = catalog.build("so", 2)
    assert so2.l == 1 and so2.factors == []


def test_so3_and_sp1_are_three_spheres():
    for name in ("so:3", "sp:1"):
        pair = catalog.pair_from_name(name)
        assert pair.algebra.n == 3
        assert betti_low(pair).betti == [1, 0, 0, 1, 0], name


def test_stiefel_4_1_is_the_3_sphere():
    assert betti_low(catalog.build("stiefel", 4, 1)).betti == \
        betti_low(catalog.build("sphere", 3)).betti == [1, 0, 0, 1, 0]


def test_stiefel_5_2():
    pair = catalog.build("stiefel", 5, 2)
    assert betti_low(pair).betti == [1, 0, 0, 0, 0]
    assert betti_koszul(pair).betti == [1, 0, 0, 0, 0]


def test_composed_names():
    pair = catalog.pair_from_name("torus:1+su:2")
    assert pair.algebra.l == 1 and pair.algebra.n == 4
    assert pair.h.dim == 0
    two = catalog.pair_from_name("sphere:2+sphere:2")
    assert two.algebra.n == 6 and two.h.dim == 2
    assert betti_low(two).betti == [1, 0, 2, 0, 1]   # S² × S²


def test_emit_round_trips():
    for name in ("sphere:3", "example_4_7", "su:2+torus:2", "sp:1"):
        doc = json.loads(json.dumps(catalog.emit(name)))
        back = HomogeneousPair.from_dict(doc)
        orig = catalog.pair_from_name(name)
        assert back.algebra.table == orig.algebra.table, name
        assert back.h == orig.h, name
        assert back.generator_columns == orig.generator_columns, name
        assert validate_pair(back).ok, name


def test_build_errors():
    cases = [
        (("sphere",), "parameter"),
        (("sphere", 1), "n >= 2"),
        (("torus", 0), ">= 1"),
        (("su", 1), "n >= 2"),
        (("sp", 0), "n >= 1"),
        (("stiefel", 3), "parameter"),
        (("stiefel", 2, 5), "1 <= k <= n"),
        (("nope",), "unknown catalog name"),
    ]
    for args, fragment in cases:
        try:
            catalog.build(*args)
        except ValueError as e:
            assert fragment in str(e), (args, str(e))
        else:
            raise AssertionError("accepted %r" % (args,))


def test_pair_from_name_rejects_empty_component():
    try:
        catalog.pair_from_name("su:2++torus:1")
    except ValueError as e:
        assert "empty component" in str(e)
    else:
        raise AssertionError("empty component accepted")


def test_factor_shorthand_so4_points_at_catalog():
    try:
        catalog.factor_from_shorthand({"type": "so", "n": 4})
    except ValueError as e:
        assert "not simple" in str(e)
    else:
        raise AssertionError("so(4) shorthand accepted")


def test_factor_shorthand_so2_points_at_center():
    try:
        catalog.factor_from_shorthand({"type": "so", "n": 2})
    except ValueError as e:
        assert "abelian" in str(e)
    else:
        raise AssertionError("so(2) shorthand accepted")


def test_dimension_limit_checked_before_building():
    # every catalog entry the tests and the benchmark use fits (sphere:7 is
    # so(8), dimension 28)
    assert MAX_DIM >= 28
    oversized = [
        lambda: catalog.factor_from_shorthand({"type": "su", "n": 1000000}),
        lambda: catalog.factor_from_shorthand({"type": "so", "n": 12}),
        lambda: catalog.factor_from_shorthand({"type": "sp", "n": 6}),
        lambda: catalog.pair_from_name("sphere:100000"),
        lambda: catalog.pair_from_name("stiefel:100000:2"),
        lambda: catalog.pair_from_name("su:9"),
        lambda: catalog.pair_from_name("sp:6"),
        lambda: catalog.pair_from_name("torus:%d" % (MAX_DIM + 1)),
        lambda: catalog.pair_from_name("torus:40+torus:40"),
        lambda: LieAlgebra.from_dict({"center_dim": 10 ** 9}),
    ]
    for build in oversized:
        try:
            build()
        except ValueError as e:
            assert "above the limit of %d" % MAX_DIM in str(e)
        else:
            raise AssertionError("oversized algebra accepted")
    assert LieAlgebra.abelian(MAX_DIM).n == MAX_DIM


def test_catalog_algebras_validate():
    for name in ("su:4", "so:6", "sp:2", "so:7"):
        pair = catalog.pair_from_name(name)
        rep = validate(pair.algebra)
        assert rep.ok, "%s: %s" % (name, rep.describe())


def _dense_mul(a, b):
    """Product of matrices over R, C, or H given as dense component tuples."""
    if len(a) == 1:
        return (a[0].dot(b[0]),)
    if len(a) == 2:
        ar, ai = a
        br, bi = b
        return (ar.dot(br) - ai.dot(bi), ar.dot(bi) + ai.dot(br))
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0.dot(b0) - a1.dot(b1) - a2.dot(b2) - a3.dot(b3),
            a0.dot(b1) + a1.dot(b0) + a2.dot(b3) - a3.dot(b2),
            a0.dot(b2) - a1.dot(b3) + a2.dot(b0) + a3.dot(b1),
            a0.dot(b3) + a1.dot(b2) - a2.dot(b1) + a3.dot(b0))


def _dense_constants(mats):
    """Reference structure constants (i, j, k, c), i < j, of a dense matrix
    basis: every commutator solved back into the flattened basis span."""
    def flat(a):
        return {r: x for r, x in
                enumerate(np.concatenate([m.reshape(-1) for m in a])) if x}

    dim = len(mats)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    comms = []
    for i, j in pairs:
        ab = _dense_mul(mats[i], mats[j])
        ba = _dense_mul(mats[j], mats[i])
        comms.append(flat(tuple(x - y for x, y in zip(ab, ba))))
    span = Subspace(sum(m.size for m in mats[0]), [flat(m) for m in mats])
    coords = coordinates(span, comms)
    return tuple((i, j, k, coords[col][k]) for col, (i, j) in enumerate(pairs)
                 for k in range(dim) if coords[col].get(k))


def _dense_basis(kind, n):
    """The catalog's so(n), su(n) or sp(n) basis as dense component tuples."""
    comps = {"so": 1, "su": 2, "sp": 4}[kind]

    def unit(entries):
        m = [np.full((n, n), F(0), dtype=object) for _ in range(comps)]
        for c, r, s, v in entries:
            m[c][r, s] = F(v)
        return tuple(m)

    lex = [(j, k) for j in range(n) for k in range(j + 1, n)]
    if kind == "so":
        return [unit([(0, a, b, 1), (0, b, a, -1)]) for a, b in lex]
    if kind == "su":
        mats = [unit([(1, j, j, 1), (1, j + 1, j + 1, -1)])
                for j in range(n - 1)]
        for j, k in lex:
            mats += [unit([(0, j, k, 1), (0, k, j, -1)]),
                     unit([(1, j, k, 1), (1, k, j, 1)])]
        return mats
    mats = [unit([(c, t, t, 1)]) for t in range(n) for c in (1, 2, 3)]
    for j, k in lex:
        mats.append(unit([(0, j, k, 1), (0, k, j, -1)]))
        mats += [unit([(c, j, k, 1), (c, k, j, 1)]) for c in (1, 2, 3)]
    return mats


def test_constants_match_dense_matrix_model():
    # emitted documents must not change: the constants read off the matrix
    # units have to be the very constants a dense solve of each commutator
    # in the flattened basis span gives, in the same order
    library = {"so": catalog._so_constants, "su": catalog._su_constants,
               "sp": catalog._sp_constants}
    for kind, sizes in (("so", range(3, 8)), ("su", range(2, 6)),
                        ("sp", range(1, 4))):
        for n in sizes:
            want = _dense_constants(_dense_basis(kind, n))
            assert library[kind](n) == want, (kind, n)


def test_largest_su_and_sp_constants_build_fast():
    # the largest accepted su(n) and sp(n); the dense solve took seconds
    for build, n in ((catalog._su_constants, 8), (catalog._sp_constants, 5)):
        build.cache_clear()
        start = time.perf_counter()
        build(n)
        assert time.perf_counter() - start < 1.0, (build, n)
