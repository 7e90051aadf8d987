"""Source rules: invariants are checked by code that `python -O` keeps."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "zefc").glob("*.py"))


def test_package_has_no_assert_statements():
    assert len(SOURCES) > 5, "the package sources were not found"
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "assert statements vanish under python -O; raise ZefcError instead"
