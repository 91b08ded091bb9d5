"""The package reads a method contract in one place: ``MethodSpec.transfer``
names the method and the thread a contract fails to cover, and a second
lookup would let an uncovered contract escape as a bare ``KeyError``."""

import ast
import glob
import os

import ownlin


def _for_thread_callers(tree: ast.Module, path: str) -> list[str]:
    """``file:line (qualified name of the enclosing definition)`` of each
    ``.for_thread(`` call in ``tree``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "for_thread"):
                found.append(f"{os.path.basename(path)}:{child.lineno} ({scope or 'module'})")
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_method_spec_transfer_reads_a_contract():
    sources = sorted(glob.glob(os.path.join(os.path.dirname(ownlin.__file__), "*.py")))
    assert sources
    calls = []
    for path in sources:
        with open(path, encoding="utf-8") as f:
            calls += _for_thread_callers(ast.parse(f.read(), filename=path), path)
    others = [c for c in calls if not c.endswith("(MethodSpec.transfer)")]
    assert len(calls) == 1 and not others, f"contract lookups outside MethodSpec.transfer: {calls}"
