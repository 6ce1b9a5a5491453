"""Design guards: one sparse matrix representation, one elimination loop,
one number rule, no numpy and no unused import.

Every module works on sparse {index: value} vectors, structure constant
tables, subspace columns and SparseMatrix columns; every matrix is a list
or a {col: column} dict of {row: value} columns (linalg).  A pair takes
and holds h and its generators as such columns: nested lists appear only
in the document and in HomogeneousPair.from_vectors, which reads it, and
no module keeps a dense view of the input, a second Subspace constructor,
Fraction constants or a dense unit vector.  The size cap is set by
size_cap or --size-cap alone, never by the environment.  Every
elimination reduces rows through one insertion loop, linalg._insert;
is_spd, the one other user of its two-term update, checks input only:
liealg.validate calls it.  Every invariant polynomial space comes from
invariant_forms.invariant_polynomials, one derivation rule and one
pullback, with no degree-2 special case.  A sparse value is an int when integral and a
Fraction only when not, and no float reaches any method.  The library
runs with numpy absent.  The cochain method hands the complex builder the
blocks a pair splits into, never their product.  Invariance under h is
imposed through a Lie generating set of h, not through every basis vector.
The Koszul complex is built on its odd generators as the pair gives them.
z(h) and [h,h] are read off the pair's ad(h) table, and a pair holds one
decomposition that every formula-path reader shares.  Every subspace the
formula path cuts, the vectors of a subspace in [g,g] or in a factor
among them, goes through linalg.kernel_in in the subspace's own
coordinates, never eliminated against a span of unit vectors.  The command line builds its parser once
per process.
"""

import ast
import functools
import json
from collections import Counter
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import liecoh
from liecoh import (catalog, ce, cli, invariant_forms, koszul, liealg, linalg,
                    pairs)
from liecoh.betti import betti_low, corollary_checks
from liecoh.cli import main
from liecoh.ce import relative_complex
from liecoh.invariant_forms import psi_analysis
from liecoh.koszul import betti_koszul, build_complex
from liecoh.linalg import SparseMatrix, Subspace
from liecoh.pairs import HomogeneousPair

import pairgen

ROOT = Path(liecoh.__file__).parent

DENSE_VIEWS = {"h_basis", "generators", "killing_gram", "from_columns", "F0",
               "F1", "_unit"}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _used_names(path):
    """(kind, name) for every name, attribute and imported name the module
    mentions; kind is "attr" for attributes, else "name"."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield "name", node.id
        elif isinstance(node, ast.Attribute):
            yield "attr", node.attr
        elif isinstance(node, ast.alias):
            yield "name", node.name


def test_every_imported_name_is_used():
    # no linter runs on the package, so this is its unused-import check
    for path in sorted(ROOT.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_no_module_imports_numpy():
    for path in sorted(ROOT.glob("*.py")):
        found = [m for m in _imported_modules(path)
                 if m.split(".")[0] == "numpy"]
        assert not found, (path.name, found)


def _defined_or_read(path):
    """The attributes a module reads or sets, and the functions, classes,
    assigned names and imported names it defines."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_method_modules_use_no_dense_helpers():
    # the whole package, not the method modules alone
    for path in sorted(ROOT.glob("*.py")):
        found = sorted(set(_defined_or_read(path)) & DENSE_VIEWS)
        assert not found, (path.name, found)
        assert "LIECOH_SIZE_CAP" not in path.read_text(), path.name
    # the guard sees each kind of definition and read
    assert set(_defined_or_read(Path(__file__).parent / "pairgen.py")) >= {
        "_unit", "F", "LieAlgebra", "columns"}


def test_is_spd_checks_input_only():
    users = sorted(path.name for path in ROOT.glob("*.py")
                   if "is_spd" in path.read_text())
    assert users == ["liealg.py", "linalg.py"]


def _users(name):
    """(module, innermost enclosing function) for every use of name in the
    package, as a name or as an attribute."""
    found = []

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if (getattr(child, "id", None) == name
                    or getattr(child, "attr", None) == name):
                found.append((path.name, owner))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner,
                path)
    for path in sorted(ROOT.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path)
    return sorted(set(found))


def test_one_elimination_loop():
    # a second elimination driver would call the two-term update itself
    assert _users("_eliminate") == [("linalg.py", "_insert"),
                                    ("linalg.py", "is_spd")]


def _numbers(obj):
    """The numbers held in nested dict values, lists, tuples, Subspace
    columns and SparseMatrix columns (None holds none)."""
    if isinstance(obj, Subspace):
        obj = obj.columns
    elif isinstance(obj, SparseMatrix):
        obj = obj.cols
    if isinstance(obj, dict):
        obj = obj.values()
    if isinstance(obj, (int, float, Fraction)):
        yield obj
    elif obj is not None:
        for x in obj:
            yield from _numbers(x)


@functools.cache
def _method_outputs():
    """(label, pair, relative complex, Psi space, Koszul slices) on catalog
    pairs and the generated suite."""
    names = ["sphere:%d" % n for n in range(4, 8)] + ["flag_su3",
                                                     "stiefel:6:2"]
    cases = [(name, catalog.pair_from_name(name)) for name in names]
    return [(label, pair, relative_complex(pair, max_degree=4, validate=False),
             psi_analysis(pair), build_complex(pair, validate=False))
            for label, pair in cases + pairgen.suite()]


def test_number_rule_on_input_and_no_float_in_the_methods():
    seen = set()
    for label, pair, cx, psi, slices in _method_outputs():
        held = list(_numbers([pair.algebra.table, pair.algebra.killing(),
                              pair.h, pair.generator_columns]))
        assert all(type(x) is int or (type(x) is Fraction
                                      and x.denominator > 1)
                   for x in held), label
        derived = list(_numbers([cx.bases, cx.deltas, psi.form_basis,
                                 psi.psi_matrix,
                                 [s.differential for s in slices]]))
        assert all(type(x) in (int, Fraction) for x in derived), label
        seen.update(type(x) for x in held + derived)
    # both number types occur, so the guard is not vacuous
    assert seen == {int, Fraction}


def test_every_matrix_is_columns_of_row_value_dicts():
    # ad e_i, the CE differentials, the Koszul differentials and Psi: a
    # {col: column} dict without zero columns, each column a {row: value}
    # dict with int rows and no zero value
    for label, pair, cx, psi, slices in _method_outputs():
        matrices = (pair.algebra.ad_sparse() + [d.cols for d in cx.deltas]
                    + [s.differential.cols for s in slices[:4]]
                    + [psi.psi_matrix.cols])
        for m in matrices:
            assert type(m) is dict and all(type(j) is int for j in m), label
            for col in m.values():
                assert type(col) is dict and col, label
                assert all(type(r) is int and x for r, x in col.items()), \
                    label


# run in a child interpreter in which every import of numpy fails
_WITHOUT_NUMPY = """
import contextlib, io, json, os, sys
sys.modules["numpy"] = None
from liecoh.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()

flag, example = (os.path.join(sys.argv[1], name + ".json")
                 for name in ("flag_su3", "example_4_7"))
run("catalog", "emit", "flag_su3", "-o", flag)
run("catalog", "emit", "example_4_7", "-o", example)
methods = json.loads(run("verify", flag, "--json"))["methods"]
assert {m: r["betti"] for m, r in methods.items()} == {
    m: [1, 0, 2, 0, 2] for m in ("formula", "koszul", "ce")}, methods
report = json.loads(run("oracle", example, "--method", "ce", "--json"))
assert report["betti"] == [1, 2, 1, 0, 0], report
"""


def test_cli_runs_without_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT.parent))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr


def test_ce_builds_the_blocks_of_a_pair(monkeypatch):
    handed = []
    real = ce.relative_complex

    def spy(pair, *args, **kw):
        handed.append(pair)
        return real(pair, *args, **kw)
    monkeypatch.setattr(ce, "relative_complex", spy)
    # g = so(5) + su(2) + R with h = 0 is three blocks, q = 10, 3 and 1,
    # whose graded complexes hold 64 + 2^3 + 2^1 monomials instead of 2^14
    product = HomogeneousPair(
        catalog.pair_from_name("so:5+su:2+torus:1").algebra, [])
    ce.betti_ce(product)
    assert sorted(p.algebra.n - p.h.dim for p in handed) == [1, 3, 10]
    # a pair of one block is handed over as itself, not rebuilt
    handed.clear()
    sphere = catalog.pair_from_name("sphere:7")
    ce.betti_ce(sphere)
    assert len(handed) == 1 and handed[0] is sphere


def test_invariant_forms_impose_one_operator_per_lie_generator(
        monkeypatch, tmp_path, capsys):
    # h = so(7) in sphere:7 has 21 basis vectors and 6 Lie generators, and
    # h ⊆ [g,g], so a verify builds one S²(h*)^H, shared by Ψ and the
    # Koszul complex, from 6 derivation operators.  The half-turns of the
    # 6 negate every coordinate of h, so (h*)^H has no graded monomial:
    # its first operator is built on none and ends the intersection
    built = Counter()
    real = invariant_forms._derivation_operator

    def operator(images, insertions):
        # by the number of graded monomials that are columns
        built[len({col for entries in insertions.values()
                   for _, col, _ in entries})] += 1
        return real(images, insertions)
    monkeypatch.setattr(invariant_forms, "_derivation_operator", operator)
    path = tmp_path / "sphere7.json"
    path.write_text(json.dumps(catalog.emit("sphere:7")))
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert catalog.pair_from_name("sphere:7").h.dim == 21
    # x_i^2 is one column, reached from x_i alone
    assert built == {21: 6, 0: 1}


def test_btilde_is_restricted_once_per_factor(monkeypatch):
    # betti_low and betti_koszul on one pair read each B̃ᵢ|_h from the
    # pair (h_btilde): one pullback of each factor's form
    pair = catalog.pair_from_name("sphere:7")
    forms = [pair.algebra.btilde(i) for i in range(pair.algebra.r)]
    pulled = []
    real = invariant_forms.pullback

    def spy(polys, columns):
        polys = list(polys)
        pulled.extend(polys)
        return real(polys, columns)
    monkeypatch.setattr(invariant_forms, "pullback", spy)
    monkeypatch.setattr(koszul, "pullback", spy)
    betti_low(pair)
    betti_koszul(pair)
    assert [f for f in pulled if f in forms] == forms == [
        pair.algebra.btilde(0)]


def test_certified_algebras_build_no_commutant(monkeypatch, tmp_path,
                                               capsys):
    # a factor's simple ideals are counted one way, dim S²(f*)^f, and
    # no module solves for a commutant; the Schur certificate proves every
    # factor of these simple, so validate never takes that count, and the
    # ideal orbit count of a semisimple h is dim S²(h*)^H, which the pair
    # already holds (h ≅ so(4) has two ideals in sphere:4 and
    # stiefel:6:2); su(3) and su(4) in the catalog basis are certified by
    # the diagonal vector i diag(1, ..., 1, 1 - n), not by e_0
    for gone in ("minimal_ideal_count", "commutant_operator",
                 "_commutant_dim"):
        assert _users(gone) == [] and gone not in liecoh.__all__, gone
    assert not hasattr(invariant_forms, "minimal_ideal_count")
    assert _users("_derivation_operator") == [
        ("invariant_forms.py", "derivation_operators")]
    assert _users("derivation_operators") == [
        ("invariant_forms.py", "invariant_polynomials"),
        ("liealg.py", "_simple_ideal_count")]
    built = []
    real = liealg._simple_ideal_count

    def count(alg, ads, start):
        built.append(len(ads))
        return real(alg, ads, start)
    monkeypatch.setattr(liealg, "_simple_ideal_count", count)
    path = tmp_path / "pair.json"
    for name in ("sphere:7", "stiefel:5:2", "so:5+torus:1", "su:3", "su:4",
                 "sphere:4", "stiefel:6:2"):
        path.write_text(json.dumps(catalog.emit(name)))
        del built[:]
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()
        assert not built, (name, built)
    # the spy sees the count where the certificate fails: so(4) as one
    # factor
    so4 = liealg.LieAlgebra.from_factor_constants(
        0, [("so(4)", 6, catalog._so_constants(4))])
    assert not liealg.validate(so4).ok and built == [6]


def test_half_turn_test_reads_at_most_three_powers(monkeypatch):
    # each candidate A reads A e_j from its columns and applies A at most
    # twice per nonzero A e_j (A^2 e_j, then A^3 e_j unless A^2 e_j =
    # -e_j), and not at all for A e_j = 0; the five-power test made about
    # 7 n^2 combinations
    calls = []
    real = linalg.combination

    def combination(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(linalg, "combination", combination)
    alg = catalog.pair_from_name("so:5+su:2+torus:1").algebra
    # so(5)'s 10 half-turns grade; su(2)'s and the torus's are the identity
    assert sum(linalg.half_turn_signs(ad, alg.n) is not None
               for ad in alg.ad_sparse()) == 10
    nonzero_columns = sum(map(len, alg.ad_sparse()))
    assert nonzero_columns < alg.n ** 2 / 2
    assert 0 < len(calls) <= 2 * nonzero_columns, len(calls)


def test_one_half_turn_test_grades_wedges_and_polynomials(monkeypatch):
    # the CE candidates of g, the half-turns of h's Lie generators on the
    # frame and those on a carrier of invariant polynomials all go through
    # linalg.half_turn_signs, with one mask rule (graded_monomials); on
    # stiefel:5:2, g = so(5) over h = so(3), CE tests L_34, the one basis
    # vector that commutes with h, on g and h's 2 Lie generators on g/h,
    # and S²(h*)^H those 2 on h
    assert _users("half_turn_signs") == [
        ("ce.py", "_half_turn_masks"), ("invariant_forms.py",
                                        "derivation_operators")]
    assert _users("graded_monomials") == [
        ("ce.py", "relative_complex"), ("invariant_forms.py",
                                        "_graded_symmetric")]
    for gone in ("_half_turns", "_graded_monomials"):
        assert _users(gone) == [] and not hasattr(ce, gone), gone
    sizes = []
    real = linalg.half_turn_signs

    def spy(columns, m):
        sizes.append(m)
        return real(columns, m)
    monkeypatch.setattr(ce, "half_turn_signs", spy)
    monkeypatch.setattr(invariant_forms, "half_turn_signs", spy)
    pair = catalog.pair_from_name("stiefel:5:2")
    relative_complex(pair)
    assert sizes == [10, 7, 7]
    del sizes[:]
    assert pair.h_forms.dim == 1 and sizes == [3, 3]


def test_composites_are_checked_where_the_ranks_are_taken():
    # δ∘δ = 0 and ∇∘∇ = 0 are checked by linalg.complex_ranks on the
    # columns it ranks, not by a product pass in either complex builder
    users = sorted(path.name for path in ROOT.glob("*.py")
                   if "differential composite" in path.read_text())
    assert users == ["linalg.py"]
    assert "koszul.py" not in {module for module, _
                               in _users("sparse_product")}


def _definitions(path):
    """{name: node} for the module-level functions and classes of a module."""
    return {node.name: node for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _names_in(node):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def test_theta_and_delta_share_one_derivation_rule():
    # theta(Y) and delta are both built column by column by one routine,
    # from images read through the frame by one projection
    defs = _definitions(ROOT / "ce.py")
    for user in ("_invariant_space", "relative_complex"):
        assert "_derivation_column" in _names_in(defs[user]), user
    for user in ("_frame_actions", "_structure_table"):
        assert "_projected" in _names_in(defs[user]), user
    for gone in ("_delta_column", "_derivation_op", "_frame_action"):
        assert gone not in defs and not hasattr(ce, gone), gone


def _multiplies_by_two(node):
    return any(isinstance(sub, (ast.BinOp, ast.AugAssign))
               and isinstance(sub.op, ast.Mult)
               and any(isinstance(x, ast.Constant) and x.value == 2
                       for x in ((sub.left, sub.right)
                                 if isinstance(sub, ast.BinOp)
                                 else (sub.value,)))
               for sub in ast.walk(node))


def test_invariant_polynomials_build_every_invariant_space():
    # the degree-2 helpers are gone, the Koszul complex and the pair's
    # S²(h*)^H reach invariance only through invariant_polynomials, and no
    # routine of invariant_forms carries a factor-2 special case
    for gone in ("sym_pairs", "vee", "restrict_form", "_ad_constraint",
                 "_generator_constraint", "invariant_sym_forms"):
        assert _users(gone) == [] and gone not in liecoh.__all__, gone
    pair_defs = _definitions(ROOT / "pairs.py")["HomogeneousPair"]
    h_forms = next(node for node in pair_defs.body
                   if getattr(node, "name", None) == "h_forms")
    direct = {"intersect_kernels", "kernel_basis", "minus_identity",
              "transpose", "h_ad", "ad_coordinates", "action_coordinates"}
    for node in (_definitions(ROOT / "koszul.py")["build_complex"], h_forms):
        names = _names_in(node) | {sub.attr for sub in ast.walk(node)
                                   if isinstance(sub, ast.Attribute)}
        assert "invariant_polynomials" in names, node.name
        assert not names & direct, (node.name, names & direct)
    assert "invariant_polynomials" in liecoh.__all__
    funcs = [node for node in ast.walk(ast.parse(
        (ROOT / "invariant_forms.py").read_text()))
        if isinstance(node, ast.FunctionDef)]
    assert [f.name for f in funcs if _multiplies_by_two(f)] == []
    assert _multiplies_by_two(ast.parse("def f(v):\n    return 2 * v"))


def test_koszul_builds_on_its_odd_generators():
    # P¹ and P³ are read off the validated pair, not rebuilt from g: no
    # primitive basis or ρ-form layer is left, and B̃ᵢ reaches the complex
    # only through pair.h_btilde
    for gone in ("cartan_rho", "primitive_basis", "PrimitiveBasis",
                 "derived_subspace"):
        assert _users(gone) == [] and gone not in liecoh.__all__, gone
        assert not hasattr(koszul, gone), gone
        assert not hasattr(liealg.LieAlgebra, gone), gone
    node = _definitions(ROOT / "koszul.py")["build_complex"]
    names = _names_in(node) | {sub.attr for sub in ast.walk(node)
                               if isinstance(sub, ast.Attribute)}
    assert "h_btilde" in names
    assert not names & {"kernel_basis", "btilde"}


def test_integers_are_parsed_by_one_rule():
    # str.isdecimal and its kin accept non-ASCII digits; int_field does not
    for path in sorted(ROOT.glob("*.py")):
        found = sorted(used for kind, used in set(_used_names(path))
                       if kind == "attr"
                       and used in {"isdecimal", "isdigit", "isnumeric"})
        assert not found, (path.name, found)
    assert "int_field" in _names_in(_definitions(ROOT / "catalog.py")["build"])


def test_decomposition_reads_the_ad_table_once_per_pair(monkeypatch, tmp_path,
                                                        capsys):
    # no second closure pass over every bracket of h is left in liealg
    for gone in ("center_and_derived", "is_bracket_closed"):
        assert _users(gone) == [] and gone not in liecoh.__all__, gone
        assert not hasattr(liealg, gone), gone
    # a verify decomposes sphere:7 once, and so does every formula-path
    # reader of one pair: betti_low, psi_analysis and corollary_checks
    calls = []
    real = pairs.decompose
    monkeypatch.setattr(pairs, "decompose",
                        lambda pair: calls.append(pair) or real(pair))
    path = tmp_path / "sphere7.json"
    path.write_text(json.dumps(catalog.emit("sphere:7")))
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    pair = catalog.pair_from_name("sphere:7")
    report = betti_low(pair)
    psi_analysis(pair)
    corollary_checks(pair, report)
    assert calls[1:] == [pair]
    # with h_ad warm, decompose takes no bracket and reads ad Y for the
    # Lie generators of h only: 6 of the 21 basis vectors of so(7)
    brackets = []
    real_bracket = liealg.LieAlgebra.bracket_sparse
    monkeypatch.setattr(liealg.LieAlgebra, "bracket_sparse",
                        lambda alg, u, v: brackets.append((u, v))
                        or real_bracket(alg, u, v))
    read_counts = {}
    for name in ("sphere:7", "example_4_7", "stiefel:6:2"):
        pair = catalog.pair_from_name(name)
        for t in pair.h_lie_indices:
            pair.h_ad(t)
        read = []
        real_ad = pair.h_ad
        monkeypatch.setattr(pair, "h_ad",
                            lambda t: read.append(t) or real_ad(t))
        del brackets[:]
        real(pair)
        assert brackets == [] and read == pair.h_lie_indices, name
        read_counts[name] = (len(read), pair.h.dim)
    assert read_counts["sphere:7"] == (6, 21)
    # the spy does see the brackets a cold table takes
    real(catalog.pair_from_name("sphere:7"))
    assert brackets


def test_cli_builds_its_parser_once(monkeypatch, tmp_path, capsys):
    # after the first main call, later calls parse with the same parser
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(catalog.emit("sphere:2")))
    assert main(["compute", str(path)]) == 0
    built = []
    real_init = cli._Parser.__init__

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", init)
    assert main(["verify", str(path)]) == 0
    assert main(["oracle", str(path), "--method", "koszul"]) == 0
    assert built == []
    # the spy does see a build: the parser and its six subcommand parsers
    cli._parser.cache_clear()
    assert main(["compute", str(path)]) == 0
    capsys.readouterr()
    assert len(built) == 7


def _spans_of_unit_vectors(path):
    """Line numbers of the Subspace.span calls of a module that build a
    unit vector {t: 1} among their arguments."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
            and any(isinstance(sub, ast.Dict) and len(sub.values) == 1
                    and isinstance(sub.values[0], ast.Constant)
                    and sub.values[0].value == 1
                    for sub in ast.walk(node))]


def test_coordinate_blocks_are_read_off_supports():
    # [g,g] and a factor are spans of unit vectors, so the vectors of a
    # subspace that lie in one are the kernel of a coordinate projection,
    # cut in the subspace's own coordinates by linalg.kernel_in, the one
    # routine that cuts a subspace; a generator's factor block is read off
    # its columns' supports: pairs and betti eliminate over no span of
    # unit vectors, and no intersection or sum of subspaces is left
    for name in ("pairs.py", "betti.py"):
        assert _spans_of_unit_vectors(ROOT / name) == [], name
    assert _users("kernel_in") == [("betti.py", "_block_support"),
                                   ("pairs.py", "decompose")]
    gone = {"intersect", "supported_on", "subspace_sum", "zero_subspace",
            "fixed_vectors"}
    for path in sorted(ROOT.glob("*.py")):
        defined = {node.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & gone, path.name
    assert all(_users(name) == [] for name in gone)
    # the guard sees the span the tests build for their reference
    assert _spans_of_unit_vectors(Path(__file__).parent / "test_pairs.py")
