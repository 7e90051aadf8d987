"""Source rules: invariants are checked by code that `python -O` keeps, and no name is dead."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "zefc").glob("*.py"))

# Top-level names that nothing in the package refers to, kept on purpose.
UNREFERENCED_ALLOWED = {
    # perfbench traces it as a span, and the codec tests compare its dicts with the oracle's.
    "codec.code_to_json",
}


def test_package_has_no_assert_statements():
    assert len(SOURCES) > 5, "the package sources were not found"
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "assert statements vanish under python -O; raise ZefcError instead"


def _defined(stmt):
    """Names a top-level statement defines: a function, a class, or assigned constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(stmt):
    """Names a statement reads, as bare names, attributes or imports."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_names(modules):
    """module.name of every top-level definition no other top-level statement refers to.

    modules maps a module name to its source. A reference from inside the
    definition itself, such as a recursive call, does not count.
    """
    statements = [
        (module, stmt)
        for module, text in modules.items()
        for stmt in ast.parse(text).body
    ]
    refs = [_referenced(stmt) for _, stmt in statements]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined(stmt):
            if not any(name in names for j, names in enumerate(refs) if j != i):
                dead.append(f"{module}.{name}")
    return sorted(dead)


def _package():
    return {path.stem: path.read_text() for path in SOURCES}


def test_every_top_level_name_is_referenced():
    dead = set(unreferenced_names(_package()))
    assert dead - UNREFERENCED_ALLOWED == set(), "delete code nothing calls, or allow-list it"
    assert UNREFERENCED_ALLOWED <= dead, "an allow-listed name is referenced now; unlist it"


def test_dead_name_guard_flags_an_unused_helper():
    modules = _package()
    modules["bitspace"] += (
        "\n\ndef _unused_helper(k):\n    return _unused_helper(k - 1) if k else MAX_K\n"
        "\n\nUNUSED_LIMIT = 3\n"
    )
    dead = set(unreferenced_names(modules))
    assert {"bitspace._unused_helper", "bitspace.UNUSED_LIMIT"} <= dead
    assert "bitspace.MAX_K" not in dead
