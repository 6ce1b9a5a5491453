"""Koszul-complex oracle: generators, differentials, and Betti agreement."""

import json

import pytest

from liecoh import catalog, koszul
from liecoh.betti import betti_low
from liecoh.ce import betti_ce
from liecoh.cli import main
from liecoh.koszul import build_complex, betti_koszul
from liecoh.pairs import HomogeneousPair
from liecoh.linalg import complex_ranks, rank, sparse_product


def _free(algebra):
    return HomogeneousPair(algebra, [])


def _primitive_dims(algebra):
    """(dim 1⊗P¹, dim 1⊗P³) read off the slices of G/1 = G."""
    slices = build_complex(_free(algebra))
    return (slices[0].summand_dims()["1⊗P¹"],
            slices[2].summand_dims()["1⊗P³"])


def test_primitive_dimensions():
    assert _primitive_dims(catalog.build("su", 2)) == (0, 1)
    assert _primitive_dims(catalog.build("torus", 3)) == (3, 0)
    assert _primitive_dims(catalog.build("example_4_7").algebra) == (2, 1)


def test_slice_dimensions_su2():
    slices = build_complex(_free(catalog.build("su", 2)))
    assert [s.degree for s in slices] == [1, 2, 3, 4, 5]
    assert [s.total_dim for s in slices] == [0, 0, 1, 0, 0]


def test_slice_dimensions_torus3():
    slices = build_complex(_free(catalog.build("torus", 3)))
    assert [s.total_dim for s in slices] == [3, 3, 1, 0, 0]
    assert slices[1].summand_dims() == {"(h*)^H⊗1": 0, "1⊗∧²P¹": 3}


def test_slice_dimensions_example_4_7():
    slices = build_complex(catalog.build("example_4_7"))
    assert [s.total_dim for s in slices] == [2, 1, 1, 3, 2]
    # the generator kills the lone H-covector but keeps its square
    assert slices[1].summand_dims()["(h*)^H⊗1"] == 0
    assert slices[3].summand_dims()["S²(h*)^H⊗1"] == 1


def test_differentials_compose_to_zero():
    slices = build_complex(catalog.build("example_4_7"))
    for k in range(3):
        lower = slices[k].differential
        upper = slices[k + 1].differential
        assert upper.ncols == lower.nrows
        assert sparse_product(upper.cols, lower.cols) == {}


def test_composite_check_fires_on_corrupted_nabla(monkeypatch, tmp_path,
                                                  capsys):
    # T³ modulo the line through e0 + e1: ∇²(f0∧f1) = x⊗f1 − x⊗f0 and
    # ∇³(x⊗f) = x·f|ₕ, so one sign flipped in that column leaves
    # ∇³∘∇²(f0∧f1) = ±2x²; betti_koszul raises and verify exits with 4
    pair = HomogeneousPair(catalog.build("torus", 3), [{0: 1, 1: 1}])
    assert betti_koszul(pair).betti == [1, 2, 1, 0, 0]
    real = koszul.nonzero
    flipped = []

    def patched(acc):
        col = real(acc)
        if len(col) == 2 and not flipped:
            flipped.append(col)
            row = next(iter(col))
            col = {**col, row: -col[row]}
        return col
    monkeypatch.setattr(koszul, "nonzero", patched)
    with pytest.raises(RuntimeError,
                       match="differential composite in degree 3 is nonzero"):
        betti_koszul(pair)
    flipped.clear()
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair.to_dict()))
    assert main(["verify", str(path)]) == 4
    err = capsys.readouterr().err
    assert "differential composite in degree 3" in err and flipped
    assert "Traceback" not in err


def test_koszul_ranks_equal_each_differential_ranked_alone():
    cases = [catalog.pair_from_name(name)
             for name in ("flag_su3", "example_4_7", "stiefel:5:2",
                          "sphere:4")]
    cases.append(_free(catalog.build("torus", 3)))
    for pair in cases:
        slices = build_complex(pair)
        maps = [s.differential for s in slices[:4]]
        alone = [rank([dict(col) for col in d.cols.values()], d.nrows)
                 for d in maps]
        assert complex_ranks(maps) == alone
        rep = betti_koszul(pair)
        assert list(rep.diagnostics["ranks"].values()) == alone


def test_betti_koszul_anchors():
    assert betti_koszul(_free(catalog.build("su", 2))).betti == [1, 0, 0, 1, 0]
    assert betti_koszul(catalog.build("sphere", 4)).betti == [1, 0, 0, 0, 1]
    assert betti_koszul(catalog.build("example_4_7")).betti == [1, 2, 1, 0, 0]


def test_betti_koszul_matches_formula_on_flag():
    flag = catalog.pair_from_name("flag_su3")
    assert betti_koszul(flag).betti == betti_low(flag).betti == [1, 0, 2, 0, 2]


def test_report_diagnostics_structure():
    rep = betti_koszul(catalog.build("sphere", 2))
    assert rep.method == "koszul"
    assert rep.diagnostics["ranks"] == {"∇1": 0, "∇2": 0, "∇3": 1, "∇4": 0}
    assert len(rep.diagnostics["slice_dims"]) == 5
    assert rep.diagnostics["slice_dims"][2]["1⊗P³"] == 1


def test_torus4_times_s2_reaches_every_summand():
    # T⁴ × S² = (R⁴ + su(2)) / the line e5: l = 4, r = 1 and
    # dim (h*)^H = dim S²(h*)^H = 1, so every summand is nonzero
    g = catalog.pair_from_name("torus:4+su:2").algebra
    pair = HomogeneousPair.from_vectors(g, [[0, 0, 0, 0, 0, 1, 0]])
    assert [s.summands for s in build_complex(pair)] == [
        [("1⊗P¹", 4)],
        [("(h*)^H⊗1", 1), ("1⊗∧²P¹", 6)],
        [("(h*)^H⊗P¹", 4), ("1⊗P³", 1), ("1⊗∧³P¹", 4)],
        [("S²(h*)^H⊗1", 1), ("(h*)^H⊗∧²P¹", 6), ("1⊗P³∧P¹", 4),
         ("1⊗∧⁴P¹", 1)],
        [("S²(h*)^H⊗P¹", 4), ("(h*)^H⊗P³", 1), ("(h*)^H⊗∧³P¹", 4)]]
    rep = betti_koszul(pair)
    assert rep.diagnostics["ranks"] == {"∇1": 0, "∇2": 0, "∇3": 1, "∇4": 4}
    # the coefficients of (1 + t)⁴(1 + t²)
    want = [1, 4, 7, 8, 7]
    assert rep.betti == betti_low(pair).betti == want
    assert betti_ce(pair).betti[:5] == want


def test_nabla_is_a_derivation_on_p3_wedge_p1():
    # g = R + su(2), h = the line e0 + e3: f|ₕ ≠ 0 and B̃|_{h×h} ≠ 0, so
    # ∇⁴(1⊗ρ∧f) = ∇ρ⊗f − ∇f⊗ρ has both terms; 𝒞⁵ lists S²⊗P¹ then (h*)^H⊗P³
    g = catalog.pair_from_name("torus:1+su:2").algebra
    d1, _, d3, d4 = (s.differential for s in build_complex(
        HomogeneousPair.from_vectors(g, [[1, 0, 0, 1]]))[:4])
    [restr] = d1.cols[0].values()    # ∇(1⊗f) = restr·ψ
    [btilde] = d3.cols[1].values()   # ∇(1⊗ρ) = btilde·t
    assert d4.cols[1] == {0: btilde, 1: -restr}


def test_primitive_forms_are_checked_on_their_factors():
    # P¹ is the center's covectors and P³ has one generator per factor
    for name in ("so:5+su:2+torus:1", "su:2+su:3", "sp:2+su:4",
                 "torus:2+su:2+su:2+su:2"):
        alg = catalog.pair_from_name(name).algebra
        assert _primitive_dims(alg) == (alg.l, alg.r), name
