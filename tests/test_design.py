"""Design guards: the Lie-data modules hold their data without numpy.

catalog, liealg and pairs work on sparse {index: value} vectors, structure
constant tables and subspace columns; numpy object arrays stay in linalg
and at the public dense accessors.
"""

import ast
from pathlib import Path

import liecoh

SPARSE_MODULES = ("catalog.py", "liealg.py", "pairs.py")


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_lie_data_modules_do_not_import_numpy():
    root = Path(liecoh.__file__).parent
    for name in SPARSE_MODULES:
        found = [m for m in _imported_modules(root / name)
                 if m.split(".")[0] == "numpy"]
        assert not found, (name, found)
