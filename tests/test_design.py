"""Design guards: one sparse matrix representation, one elimination loop,
one number rule, no numpy and no unused import.

Every module works on sparse {index: value} vectors, structure constant
tables, subspace columns and SparseMatrix columns; every matrix is a list
or a {col: column} dict of {row: value} columns (linalg).  The only dense
matrices are the nested-list views of the input (h_basis, the generators,
the Killing rows), and the method modules do not touch those.  Every
elimination reduces rows through one insertion loop, linalg._insert;
is_spd, the one other user of its two-term update, checks input only:
liealg.validate calls it.  A sparse value is an int when integral and a
Fraction only when not, and no float reaches any method.  The library
runs with numpy absent.  The cochain method hands the complex builder the
blocks a pair splits into, never their product.  Invariance under h is
imposed through a Lie generating set of h, not through every basis vector.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import liecoh
from liecoh import catalog, ce, invariant_forms, liealg
from liecoh.cli import main
from liecoh.ce import relative_complex
from liecoh.invariant_forms import psi_analysis
from liecoh.koszul import build_complex
from liecoh.linalg import SparseMatrix, Subspace
from liecoh.pairs import HomogeneousPair

import pairgen

ROOT = Path(liecoh.__file__).parent

METHOD_MODULES = ("betti.py", "ce.py", "invariant_forms.py", "koszul.py")

DENSE_VIEWS = {"h_basis", "generators", "killing_gram"}


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


def test_method_modules_use_no_dense_helpers():
    for name in METHOD_MODULES:
        found = sorted(used for kind, used in set(_used_names(ROOT / name))
                       if kind == "attr" and used in DENSE_VIEWS)
        assert not found, (name, found)


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
    env = {k: v for k, v in os.environ.items() if k != "LIECOH_SIZE_CAP"}
    env["PYTHONPATH"] = str(ROOT.parent)
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
    # whose wedge spaces hold 2^10 + 2^3 + 2^1 monomials instead of 2^14
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
    # Koszul complex, from 6 ad operators
    built = []
    real_constraint = invariant_forms._ad_constraint

    def constraint(*args):
        built.append(args)
        return real_constraint(*args)
    monkeypatch.setattr(invariant_forms, "_ad_constraint", constraint)
    path = tmp_path / "sphere7.json"
    path.write_text(json.dumps(catalog.emit("sphere:7")))
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert catalog.pair_from_name("sphere:7").h.dim == 21
    assert len(built) == 6


def test_certified_algebras_build_no_commutant(monkeypatch, tmp_path,
                                               capsys):
    # the Schur certificate proves every factor and h of these simple, so
    # neither validate nor the ideal orbit count builds a commutant
    # operator; su(3) in the catalog basis falls back to the commutant
    built = []
    real = liealg.commutant_operator

    def operator(*args):
        built.append(args[1])
        return real(*args)
    monkeypatch.setattr(liealg, "commutant_operator", operator)
    monkeypatch.setattr(invariant_forms, "commutant_operator", operator)
    path = tmp_path / "pair.json"
    for name in ("sphere:7", "stiefel:5:2", "so:5+torus:1", "su:3"):
        path.write_text(json.dumps(catalog.emit(name)))
        del built[:]
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()
        assert bool(built) == (name == "su:3"), (name, built)


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
    for user in ("_invariant_space", "_DeltaColumns"):
        assert "_derivation_column" in _names_in(defs[user]), user
    for user in ("_frame_actions", "_structure_table"):
        assert "_projected" in _names_in(defs[user]), user
    for gone in ("_delta_column", "_derivation_op", "_frame_action"):
        assert gone not in defs and not hasattr(ce, gone), gone


def test_integers_are_parsed_by_one_rule():
    # str.isdecimal and its kin accept non-ASCII digits; int_field does not
    for path in sorted(ROOT.glob("*.py")):
        found = sorted(used for kind, used in set(_used_names(path))
                       if kind == "attr"
                       and used in {"isdecimal", "isdigit", "isnumeric"})
        assert not found, (path.name, found)
    assert "int_field" in _names_in(_definitions(ROOT / "catalog.py")["build"])
