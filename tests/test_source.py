"""Source rules: checks that `python -O` keeps, no dead names, no call that loads numpy.ma,
no error code that no test names, and no arithmetic on an array's extremum."""

import ast
import collections
import io
import pathlib
import re
import tokenize

HERE = pathlib.Path(__file__).resolve()
SOURCES = sorted((HERE.parent.parent / "src" / "zefc").glob("*.py"))
# The test files whose strings name error codes; this file plants codes of its own.
TESTS = sorted(path for path in HERE.parent.glob("test_*.py") if path != HERE)

# Top-level names that nothing in the package refers to, kept on purpose.
UNREFERENCED_ALLOWED = {
    # perfbench traces it as a span, and the codec tests compare its dicts with the oracle's.
    "codec.code_to_json",
    # perfbench wraps it for the traced run; no zefc code calls it.
    "_parallel.chunked_map",
}

# Methods and properties that nothing in the package names, kept on purpose.
UNREFERENCED_METHODS_ALLOWED = {
    # argparse calls it on a bad argument list.
    "cli._Parser.error",
}

# Float tolerances per module: `1e-N` literals plus `isclose` calls, each a place where
# slack decides a check. Modules not listed, `nfc` among them, have none. Shrink the
# counts as checks become exact.
FLOAT_TOLERANCES_ALLOWED = {
    "acceptance": 6,
    "coloring": 1,
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


def _reads(tree):
    """Every name a subtree reads, as bare names, attributes or imports, with repeats."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


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
    refs = [set(_reads(stmt)) for _, stmt in statements]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined(stmt):
            if not any(name in names for j, names in enumerate(refs) if j != i):
                dead.append(f"{module}.{name}")
    return sorted(dead)


def unreferenced_methods(modules):
    """module.Class.name of every non-dunder method or property the package never names.

    A reference from inside the method itself does not count.
    """
    trees = [ast.parse(text) for text in modules.values()]
    reads = collections.Counter(name for tree in trees for name in _reads(tree))
    dead = []
    for module, tree in zip(modules, trees):
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                if reads[fn.name] == sum(name == fn.name for name in _reads(fn)):
                    dead.append(f"{module}.{cls.name}.{fn.name}")
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


def test_every_method_is_referenced():
    dead = set(unreferenced_methods(_package()))
    assert dead - UNREFERENCED_METHODS_ALLOWED == set(), "delete unused methods or allow-list them"
    assert UNREFERENCED_METHODS_ALLOWED <= dead, "an allow-listed method is used now; unlist it"


def test_dead_method_guard_flags_an_unused_method():
    modules = _package()
    modules["bitspace"] += (
        "\n\nclass _Probe:\n"
        "    def unused_method(self):\n        return self.unused_method()\n\n"
        "    @property\n    def used_property(self):\n        return 1\n\n"
        "    def __repr__(self):\n        return str(self.used_property)\n"
    )
    dead = set(unreferenced_methods(modules))
    assert "bitspace._Probe.unused_method" in dead
    assert not {"bitspace._Probe.used_property", "bitspace._Probe.__repr__"} & dead


def float_tolerances(modules):
    """Per module with any: its count of `1e-N` literals and `isclose` calls.

    Literals are read off the tokens, so a mention in a comment or a string does
    not count.
    """
    counts = {}
    for module, text in modules.items():
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        literals = sum(
            tok.type == tokenize.NUMBER and re.fullmatch(r"1e-\d+", tok.string, re.I) is not None
            for tok in tokens
        )
        calls = sum(
            isinstance(node, ast.Call)
            and "isclose" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(text))
        )
        if literals + calls:
            counts[module] = literals + calls
    return counts


def test_float_tolerances_stay_listed():
    counts = float_tolerances(_package())
    assert counts == FLOAT_TOLERANCES_ALLOWED, "decide the check exactly, or list the change"


def test_float_tolerance_rule_flags_a_new_site():
    modules = _package()
    modules["nfc"] += (
        "\n\ndef _close(a, b):\n    # within 1e-9\n"
        "    return math.isclose(a, b, abs_tol=1e-9) or abs(a - b) < 1E-12\n"
    )
    modules["coloring"] = modules["coloring"].replace("1e-9", "0")
    counts = float_tolerances(modules)
    assert counts["nfc"] == 3
    assert "coloring" not in counts


def log2_3_sites(modules):
    """module:line of each logarithm of 3, or to base 3, taken outside `exact`.

    A site is a call to a `log*` function with the literal 3 among its arguments,
    such as math.log2(3) or math.log(6, 3). The calls are read off the syntax
    tree, so a mention in a comment or a string does not count.
    """
    sites = []
    for module, text in modules.items():
        if module == "exact":
            continue
        for node in ast.walk(ast.parse(text)):
            name = isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) or getattr(node.func, "attr", "")
            )
            if name and name.startswith("log") and any(
                isinstance(arg, ast.Constant) and arg.value == 3 for arg in node.args
            ):
                sites.append(f"{module}:{node.lineno}")
    return sites


def test_only_exact_computes_log2_3():
    assert log2_3_sites(_package()) == [], "read exact.LOG2_3 or decide with exact.log2_3_sign"


def test_log2_3_rule_flags_a_new_site():
    modules = _package()
    modules["nfc"] += (
        "\n\ndef _tau():\n    # math.log2(3) in a comment\n"
        "    text = 'math.log2(3)'\n"
        "    return math.log2(3) - 1, math.log(6, 3), math.log2(6), len(text)\n"
    )
    sites = log2_3_sites(modules)
    lines = len(modules["nfc"].splitlines())
    assert sites == [f"nfc:{lines}", f"nfc:{lines}"]
    assert log2_3_sites({"exact": modules["exact"]}) == []


# np.unique without any of these keywords goes through the hash path, whose first
# call in a process imports numpy.ma under numpy 2.
_UNIQUE_RETURNS = {"return_index", "return_inverse", "return_counts"}


def plain_unique_sites(modules):
    """module:line of each np.unique call that asks for none of index, inverse or counts."""
    sites = []
    for module, text in modules.items():
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "unique"
                and not _UNIQUE_RETURNS & {kw.arg for kw in node.keywords}
            ):
                sites.append(f"{module}:{node.lineno}")
    return sites


def test_no_plain_np_unique():
    assert plain_unique_sites(_package()) == [], "use bitspace.distinct, which imports no numpy.ma"


def test_plain_unique_rule_flags_a_new_site():
    modules = _package()
    modules["nfc"] += (
        "\n\ndef _count(a):\n    # np.unique(a) in a comment\n"
        "    text = 'np.unique(a)'\n"
        "    return np.unique(a).size, np.unique(a, return_counts=True), len(text)\n"
    )
    lines = len(modules["nfc"].splitlines())
    assert plain_unique_sites(modules) == [f"nfc:{lines}"]


def unnamed_error_codes(modules, tests):
    """Code -> module:line sites of each ZefcError("<code>", ...) whose code no test names.

    A test names a code when the code is a whole string constant in its source,
    so a mention in a comment does not count. tests holds the test sources.
    """
    named = {
        node.value
        for text in tests
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    unnamed = {}
    for module, text in modules.items():
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "ZefcError"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value not in named
            ):
                unnamed.setdefault(node.args[0].value, []).append(f"{module}:{node.lineno}")
    return unnamed


def test_every_error_code_is_named_by_a_test():
    tests = [path.read_text() for path in TESTS]
    assert len(tests) > 5, "the test files were not found"
    assert unnamed_error_codes(_package(), tests) == {}, "raise each error code in a test"


def test_error_code_rule_flags_an_unnamed_code():
    modules = _package()
    modules["nfc"] += (
        "\n\ndef _planted():\n    # planted_code in a comment\n"
        '    raise ZefcError("planted_code", "no test raises this")\n'
    )
    lines = len(modules["nfc"].splitlines())
    tests = [path.read_text() for path in TESTS] + ['# "planted_code"\n']
    assert unnamed_error_codes(modules, tests) == {"planted_code": [f"nfc:{lines}"]}
    assert unnamed_error_codes(modules, tests + ['code = "planted_code"\n']) == {}


def extremum_arithmetic_sites(modules):
    """module:line of each `+` or `-` that has an array's .max() or .min() as an operand.

    The extremum of a narrow array is a numpy scalar of its dtype, so
    labels.max() + 1 wraps to 0 when the labels reach 255 on uint8;
    int(labels.max()) + 1 is a Python int and does not.
    """
    sites = []
    for module, text in modules.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)) and any(
                isinstance(side, ast.Call) and getattr(side.func, "attr", None) in ("max", "min")
                for side in (node.left, node.right)
            ):
                sites.append(f"{module}:{node.lineno}")
    return sites


def test_no_arithmetic_on_an_array_extremum():
    assert extremum_arithmetic_sites(_package()) == [], "wrap the extremum in int(...) first"


def test_extremum_arithmetic_rule_flags_a_new_site():
    modules = _package()
    modules["nfc"] += (
        "\n\ndef _size(a):\n    # a.max() + 1 in a comment\n"
        "    text = 'a.max() + 1'\n"
        "    return int(a.max()) + 1, max(a) + 1, np.empty(a.max() + 1), 1 - a.min(), len(text)\n"
    )
    lines = len(modules["nfc"].splitlines())
    assert extremum_arithmetic_sites(modules) == [f"nfc:{lines}", f"nfc:{lines}"]
