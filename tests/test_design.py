"""Design guards: one sparse matrix representation outside linalg.

Every module except linalg works on sparse {index: value} vectors,
structure constant tables, subspace columns and SparseMatrix columns;
numpy object arrays stay in linalg and at the public dense accessors.  The
method modules do not even touch those accessors or the dense helpers.
"""

import ast
from pathlib import Path

import liecoh

ROOT = Path(liecoh.__file__).parent

METHOD_MODULES = ("betti.py", "ce.py", "invariant_forms.py", "koszul.py")

DENSE_HELPERS = {"solve_many", "dot", "nonzeros", "sparse_columns", "fzeros",
                 "feye", "is_zero"}
DENSE_ACCESSORS = {"basis", "h_basis"}


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


def test_only_linalg_imports_numpy():
    for path in sorted(ROOT.glob("*.py")):
        if path.name == "linalg.py":
            continue
        found = [m for m in _imported_modules(path)
                 if m.split(".")[0] == "numpy"]
        assert not found, (path.name, found)


def test_method_modules_use_no_dense_helpers():
    for name in METHOD_MODULES:
        found = sorted(
            used for kind, used in set(_used_names(ROOT / name))
            if used in DENSE_HELPERS
            or kind == "attr" and used in DENSE_ACCESSORS)
        assert not found, (name, found)
