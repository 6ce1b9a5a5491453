"""Catalog builders: shapes, known cohomology, serialization, input errors."""

import json
from fractions import Fraction

from liecoh import catalog
from liecoh.betti import betti_low
from liecoh.koszul import betti_koszul
from liecoh.liealg import MAX_DIM, LieAlgebra, is_bracket_closed, validate
from liecoh.pairs import HomogeneousPair, validate_pair
from liecoh.linalg import F1, feye, fzeros

F = Fraction


def _free(algebra):
    return HomogeneousPair(algebra, fzeros(algebra.n, 0))


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
    assert is_bracket_closed(g, pair.h)
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
    assert [str(x) for x in pair.h_basis[:, 0]] == ["0", "0", "0", "1", "0"]
    gen = pair.generators[0]
    want = feye(5)
    want[3, 3] = F(-1)
    want[4, 4] = F(-1)
    assert (gen == want).all()


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
        assert len(back.generators) == len(orig.generators), name
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


def test_so_constants_closed_form_matches_matrix_model():
    # emitted documents must not change: the closed form has to give the
    # very constants the matrix model solves for, in the same order
    for n in range(3, 8):
        mats = []
        for a, b in catalog._lex_pairs(n):
            m = fzeros(n, n)
            m[a, b] = F1
            m[b, a] = -F1
            mats.append((m,))
        assert catalog._so_constants(n) == catalog._matrix_constants(mats), n
