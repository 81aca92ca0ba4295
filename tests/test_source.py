"""Checks on the library source itself."""

import ast
import os

PKG = os.path.join(os.path.dirname(__file__), "..", "src", "curvepi")


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a soundness check written as
    # one would vanish; the library raises instead
    found = []
    names = sorted(n for n in os.listdir(PKG) if n.endswith(".py"))
    assert names
    for name in names:
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
