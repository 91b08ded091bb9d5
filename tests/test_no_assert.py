"""The package checks its invariants with real errors: ``python -O`` strips
``assert`` statements, and the checks must hold under it too."""

import ast
import glob
import os

import ownlin


def test_package_has_no_assert_statements():
    sources = sorted(glob.glob(os.path.join(os.path.dirname(ownlin.__file__), "*.py")))
    assert sources
    found = []
    for path in sources:
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
