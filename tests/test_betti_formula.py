"""Closed-form Betti numbers b0..b4 and the consistency corollary flags."""

from math import comb

from liecoh import catalog
from liecoh.betti import BettiReport, betti_low
from liecoh.liealg import ValidationError
from liecoh.pairs import HomogeneousPair

from pairgen import eye, rp4_pair, twisted_diagonal_pair


def _flags(report):
    return {f["name"]: f["status"] for f in report.corollary_flags}


def test_spheres():
    expected = {2: [1, 0, 1, 0, 0],
                3: [1, 0, 0, 1, 0],
                4: [1, 0, 0, 0, 1],
                5: [1, 0, 0, 0, 0],
                6: [1, 0, 0, 0, 0]}
    for n, want in expected.items():
        assert betti_low(catalog.build("sphere", n)).betti == want


def test_example_4_7_with_and_without_generator():
    pair = catalog.build("example_4_7")
    assert betti_low(pair).betti == [1, 2, 1, 0, 0]
    bare = HomogeneousPair(pair.algebra, pair.h.columns)
    assert betti_low(bare).betti == [1, 2, 2, 2, 1]


def test_flag_su3():
    assert betti_low(catalog.pair_from_name("flag_su3")).betti == [1, 0, 2, 0, 2]


def test_point():
    su3 = catalog.build("su", 3)
    full = HomogeneousPair.from_vectors(su3, eye(8))
    assert betti_low(full).betti == [1, 0, 0, 0, 0]


def test_real_projective_4_space():
    assert betti_low(rp4_pair()).betti == [1, 0, 0, 0, 0]


def test_twisted_diagonal_subalgebra_looks_like_sphere_3():
    assert betti_low(twisted_diagonal_pair()).betti == [1, 0, 0, 1, 0]


def test_group_cases_b3_counts_factors():
    for name in ("su:2", "su:3", "su:2+su:2", "torus:3+su:2"):
        pair = catalog.pair_from_name(name)   # trivial h
        rep = betti_low(pair)
        g = pair.algebra
        assert rep.betti[1] == g.l
        assert rep.betti[3] == g.r + comb(g.l, 3), name


def test_intermediates_sphere_4():
    rep = betti_low(catalog.build("sphere", 4))
    assert rep.method == "formula"
    assert rep.intermediates == {"l": 0, "r": 1, "r0": 0, "dim_a_fixed": 0,
                                 "dim_N": 0, "dim_C": 1, "rank_psi": 1,
                                 "dim_S2_hgg_inv": 2}


def test_corollary_flags_sphere_4():
    assert _flags(betti_low(catalog.build("sphere", 4))) == {
        "semisimple_betti_identity": "pass",
        "simple_ambient_b3_vanishes": "pass",
        "block_support_kernel_count": "pass",
        "semisimple_h_block_betti": "pass",
        "toral_h_difference": "skipped"}


def test_corollary_flags_flag_su3():
    assert _flags(betti_low(catalog.pair_from_name("flag_su3"))) == {
        "semisimple_betti_identity": "pass",
        "simple_ambient_b3_vanishes": "pass",
        "block_support_kernel_count": "pass",
        "semisimple_h_block_betti": "skipped",   # h is a torus
        "toral_h_difference": "pass"}


def test_corollary_flags_center_skips_semisimple_identity():
    g = catalog.pair_from_name("torus:2+su:2").algebra
    rep = betti_low(HomogeneousPair(g, []))
    assert rep.betti == [1, 2, 1, 1, 2]
    flags = _flags(rep)
    assert flags["semisimple_betti_identity"] == "skipped"
    assert flags["block_support_kernel_count"] == "pass"


def test_corollary_flags_diagonal_embedding_skips_block_counts():
    # h = diagonal su(2) inside su(2)+su(2): the projection hits both
    # factors but the intersection with each is zero
    flags = _flags(betti_low(catalog.build("sphere", 3)))
    assert flags["block_support_kernel_count"] == "skipped"
    assert flags["semisimple_h_block_betti"] == "skipped"


def test_no_flag_ever_fails_on_catalog_pairs():
    for name in ("sphere:2", "sphere:3", "sphere:4", "sphere:5", "sphere:6",
                 "example_4_7", "flag_su3", "stiefel:4:1", "stiefel:5:2",
                 "su:3", "sp:2", "torus:3+su:2"):
        rep = betti_low(catalog.pair_from_name(name))
        bad = [f for f in rep.corollary_flags if f["status"] == "fail"]
        assert not bad, "%s: %r" % (name, bad)


def test_report_to_dict_explain_toggle():
    rep = BettiReport([1, 0, 0, 0, 0], "formula", {"r0": 0},
                      diagnostics={"note": 1})
    plain = rep.to_dict()
    assert plain["betti"] == [1, 0, 0, 0, 0]
    assert "diagnostics" not in plain
    assert rep.to_dict(explain=True)["diagnostics"] == {"note": 1}


def test_betti_low_validates_by_default():
    g = catalog.build("su", 2)
    bad = HomogeneousPair(g, [{0: 1}, {1: 1}])
    try:
        betti_low(bad)
    except ValidationError:
        pass
    else:
        raise AssertionError("invalid pair accepted")
