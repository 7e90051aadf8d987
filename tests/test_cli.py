"""CLI behavior: golden outputs, determinism, schema conformance, exit codes."""

import io
import json
import pathlib
import argparse
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

from oracles import printed_code_admissible
from zefc.cli import _print_table, _render, build_parser, main

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "schemas"


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant)


def schema(name):
    return json.loads((SCHEMAS / f"{name}.json").read_text())


def test_capacity_golden_example(capsys):
    code, doc = run_cli(capsys, ["capacity", "--case", "01", "--c1", "2", "--c2", "1"])
    assert code == 0
    assert doc["value"] == 1.630929753571
    assert doc["formula"] == "log3(6)"
    validate(doc, schema("capacity"))


def test_capacity_with_witness(capsys):
    code, doc = run_cli(
        capsys, ["capacity", "--case", "01", "--c1", "2", "--c2", "1", "--k", "100"]
    )
    assert code == 0
    assert doc["achieved"] == round(100 / 62, 12)
    assert doc["converse_bound"] is not None
    validate(doc, schema("capacity"))


def test_capacity_other_cases(capsys):
    code, doc = run_cli(capsys, ["capacity", "--case", "11", "--c1", "3", "--c2", "2"])
    assert code == 0
    assert doc["formula"] == "(C1+C2)/log2(3)"
    assert doc["value"] == 3.154648767857
    validate(doc, schema("capacity"))
    code, doc = run_cli(capsys, ["capacity", "--case", "00", "--c1", "3/2", "--c2", "1"])
    assert code == 0
    assert doc["formula"] == "C2"
    assert doc["value"] == 1.0


def test_construct_report(capsys):
    code, doc = run_cli(
        capsys, ["construct", "--case", "01", "--c1", "2", "--c2", "1", "--k", "3"]
    )
    assert code == 0
    assert doc["name"] == "split01"
    assert doc["admissible"] is True
    assert doc["uses"]["n"] == 2
    assert doc["code"]["images"] == [12, 4]
    validate(doc, schema("construct"))


def test_construct_has_no_threads_option(capsys):
    argv = ["construct", "--case", "01", "--c1", "2", "--c2", "1", "--k", "3", "--threads", "2"]
    code, doc = run_cli(capsys, argv)
    assert code == 2
    assert doc["error"]["code"] == "bad_arguments"
    validate(doc, schema("error"))


def test_construct_skips_admissibility_beyond_exhaustive_range(capsys):
    code, doc = run_cli(
        capsys, ["construct", "--case", "11", "--c1", "1", "--c2", "1", "--k", "9"]
    )
    assert code == 0
    assert doc["admissible"] is None
    validate(doc, schema("construct"))


def test_verify_aitch_report(capsys):
    code, doc = run_cli(capsys, ["verify", "aitch", "--l-max", "64"])
    assert code == 0
    assert doc["violations"] == 0
    assert doc["counterexample_above_tau"]["l"] == 2
    validate(doc, schema("verify-aitch"))


def test_verify_aitch_explicit_tau_reports_violations(capsys):
    code, doc = run_cli(capsys, ["verify", "aitch", "--l-max", "64", "--tau", "0.595"])
    assert code == 0
    assert doc["violations"] > 0
    assert doc["violation_examples"]
    validate(doc, schema("verify-aitch"))


def test_verify_sumset_bound_report(capsys):
    code, doc = run_cli(
        capsys, ["verify", "sumset-bound", "--k-max", "5", "--samples", "20", "--seed", "7"]
    )
    assert code == 0
    modes = [entry["mode"] for entry in doc["entries"]]
    assert modes == ["exhaustive"] * 4 + ["inductive"]
    assert all(entry["violations"] == 0 for entry in doc["entries"])
    assert doc["entries"][4]["certificate"]["l_max"] == 32
    validate(doc, schema("verify-sumset-bound"))
    # --samples and --seed are echoed in the query and change nothing else.
    code, other = run_cli(
        capsys, ["verify", "sumset-bound", "--k-max", "5", "--samples", "1", "--seed", "8"]
    )
    assert code == 0 and other["entries"] == doc["entries"]


def test_qk_table_and_bracket(capsys):
    code, doc = run_cli(capsys, ["qk", "--k", "2"])
    assert code == 0
    assert [row["value"] for row in doc["rows"]] == [4, 6, 8, 9]
    validate(doc, schema("qk"))
    code, doc = run_cli(capsys, ["qk", "--k", "9", "--bracket", "--l", "100"])
    assert code == 0
    row = doc["rows"][0]
    assert row["exact"] is False and row["lower"] <= row["upper"]
    validate(doc, schema("qk"))


def test_qk_exact_refusal_is_machine_readable(capsys):
    code, doc = run_cli(capsys, ["qk", "--k", "9"])
    assert code == 2
    assert doc["error"]["code"] == "exact_mode_limit"
    assert "use --bracket" in doc["error"]["message"]
    validate(doc, schema("error"))


def test_chim_table(capsys):
    code, doc = run_cli(capsys, ["chim", "--k", "2"])
    assert code == 0
    assert {row["m"]: row["value"] for row in doc["rows"]} == {1: 9, 2: 6, 3: 6, 4: 4}
    validate(doc, schema("chim"))
    code, doc = run_cli(capsys, ["chim", "--k", "4"])
    assert code == 2
    assert doc["error"]["code"] == "k_too_large"


def test_gamma_pair_report(capsys):
    code, doc = run_cli(capsys, ["gamma-pair", "--k", "4"])
    assert code == 0
    assert doc["value"] == 24
    assert len(doc["witness"]) == 2
    validate(doc, schema("gamma-pair"))


def test_gamma_pair_rejects_k_below_one(capsys):
    code, doc = run_cli(capsys, ["gamma-pair", "--k", "0"])
    assert code == 2
    assert doc["error"]["code"] == "bad_k"
    validate(doc, schema("error"))


def test_nfc_report(capsys):
    code, doc = run_cli(capsys, ["nfc", "--c1", "2", "--c2", "1"])
    assert code == 0
    assert doc["witness_cut"] == ["e1", "e2", "e3"]
    assert doc["gap"] == 0.261859507143
    assert doc["edges"] == 9
    validate(doc, schema("nfc"))


def test_nfc_rejects_fractional_caps(capsys):
    code, doc = run_cli(capsys, ["nfc", "--c1", "3/2", "--c2", "1"])
    assert code == 2
    assert doc["error"]["code"] == "bad_caps"
    validate(doc, schema("error"))


def test_nfc_refuses_oversized_networks(capsys):
    code, doc = run_cli(capsys, ["nfc", "--c1", "1e30", "--c2", "1"])
    assert code == 2
    assert doc["error"]["code"] == "too_many_edges"
    validate(doc, schema("error"))


def test_nfc_past_20_edges(capsys):
    code, doc = run_cli(capsys, ["nfc", "--c1", "10", "--c2", "1"])
    assert code == 0
    assert doc["edges"] == 41
    assert doc["bound_enum"] == doc["bound_formula"]
    validate(doc, schema("nfc"))


# Caps far beyond any channel: each once raised OverflowError or ran for minutes on
# 2^(n*c) and 3^(k1*c) powers.
HUGE_CAP_REQUESTS = (
    "capacity --case 00 --c1 1e30 --c2 1 --k 5",
    "capacity --case 01 --c1 1e30 --c2 1 --k 5",
    "capacity --case 01 --c1 2e30 --c2 1e30 --k 5",
    "capacity --case 11 --c1 1e30 --c2 1 --k 5",
    "capacity --case 11 --c1 1e30 --c2 1e30 --k 5",
    "capacity --case 01 --c1 2000000000000000000000000000003"
    " --c2 1000000000000000000000000000001 --k 5",
    "construct --case 01 --c1 1e30 --c2 1 --k 3",
    "construct --case 11 --c1 1e30 --c2 1 --k 3",
)


@pytest.mark.parametrize("request_text", HUGE_CAP_REQUESTS)
def test_huge_caps_answer_or_refuse(capsys, request_text):
    argv = request_text.split()
    code, doc = run_cli(capsys, argv)
    assert code in (0, 2)
    validate(doc, schema(argv[0] if code == 0 else "error"))


# Costly requests refused before any work is done; each ran for seconds to minutes.
COSTLY_REQUESTS = (
    ("verify sumset-bound --k-max 13", "k_too_large"),
    ("verify sumset-bound --k-max 22 --samples 1", "k_too_large"),
    ("verify aitch --l-max 4097", "l_too_large"),
    ("verify aitch --l-max 200000", "l_too_large"),
    ("capacity --case 11 --c1 2 --c2 1 --k 100000000", "packing_too_costly"),
    ("capacity --case 11 --c1 127/64 --c2 63/64 --k 100000", "packing_too_costly"),
    ("verify sumset-bound --k-max 8 --samples 100000000", "bad_samples"),
    ("capacity --case 00 --c1 1 --c2 1 --k 100000000000", "k_too_large"),
    ("capacity --case 10 --c1 1 --c2 1 --k 100000000000", "k_too_large"),
)

# Inputs that printed NaN or Infinity, or exited 1 with a traceback.
BAD_INPUTS = (
    ("verify aitch --l-max 10 --tau nan", "bad_tau"),
    ("verify aitch --l-max 10 --tau inf", "bad_tau"),
    ("verify aitch --l-max 10 --tau=-inf", "bad_tau"),
    ("verify aitch --l-max 10 --tau 1e308", "bad_tau"),
    ("verify sumset-bound --samples -1", "bad_samples"),
    ("qk --k 5000 --bracket --l 5", "k_too_large"),
    (f"qk --k 800 --bracket --l {(1 << 800) - 1}", "k_too_large"),
    ("capacity --case 11 --c1 1e400 --c2 1", "bad_caps"),
    ("capacity --case 01 --c1 1e400 --c2 1 --k 5", "bad_caps"),
    ("construct --case 11 --c1 1e400 --c2 1 --k 3", "bad_caps"),
    ("capacity --case 11 --c1 1e10000000 --c2 1", "bad_caps"),
    ("capacity --case 00 --c1 1e400 --c2 1", "bad_caps"),
    ("capacity --case 11 --c1 1e-10000000 --c2 1", "bad_caps"),
    ("capacity --case 11 --c1 1e308 --c2 1e308 --k 3", "bad_caps"),
    ("construct --case 01 --c1 1e308 --c2 1 --k 3", "bad_caps"),
    (f"capacity --case 11 --c1 {10**400}/3 --c2 1", "bad_caps"),
    ("qk --k -1", "bad_k"),
    ("qk --k -1 --bracket", "bad_k"),
    ("chim --k -1", "bad_k"),
    ("chim --k 0", "bad_k"),
)


@pytest.mark.parametrize("request_text,error", COSTLY_REQUESTS + BAD_INPUTS)
def test_costly_requests_are_refused(capsys, request_text, error):
    code, doc = run_cli(capsys, request_text.split())
    assert code == 2
    assert doc["error"]["code"] == error
    validate(doc, schema("error"))


def test_largest_budgets_still_answer(capsys):
    code, doc = run_cli(capsys, ["verify", "aitch", "--l-max", "4096"])
    assert code == 0 and doc["violations"] == 0
    code, doc = run_cli(capsys, ["verify", "sumset-bound", "--k-max", "12"])
    assert code == 0 and [e["k"] for e in doc["entries"]] == list(range(1, 13))
    code, doc = run_cli(capsys, "capacity --case 11 --c1 2 --c2 1 --k 600000".split())
    assert code == 0 and doc["achieved"] <= doc["converse_bound"]
    for case in ("00", "10"):
        code, doc = run_cli(capsys, f"capacity --case {case} --c1 1 --c2 1 --k 1000000".split())
        assert code == 0 and doc["achieved"] == 1.0
    code, doc = run_cli(capsys, ["verify", "aitch", "--l-max", "64", "--tau", "-64"])
    assert code == 0 and doc["query"]["tau"] == -64.0
    code, doc = run_cli(capsys, "qk --k 1000 --bracket --l 5".split())
    assert code == 0 and doc["rows"][0]["lower"] <= doc["rows"][0]["upper"]
    code, doc = run_cli(capsys, "qk --k 1023 --bracket --l 3".split())
    assert code == 0 and doc["rows"][0]["lower"] <= doc["rows"][0]["upper"]
    # The two largest networks MAX_NETWORK_EDGES allows: 2000 edges each.
    for c1, c2 in (("400", "400"), ("499", "4")):
        code, doc = run_cli(capsys, ["nfc", "--c1", c1, "--c2", c2])
        assert code == 0 and doc["edges"] == 2000
        assert doc["bound_enum"] == doc["bound_formula"]


# Every subcommand that takes --threads, with a cheap request.
THREADED_REQUESTS = (
    "qk --k 2 --l 1",
    "gamma-pair --k 2",
    "verify sumset-bound --k-max 2",
)


@pytest.mark.parametrize("request_text", THREADED_REQUESTS)
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_is_checked_for_every_subcommand(capsys, request_text, threads):
    code, doc = run_cli(capsys, request_text.split() + ["--threads", threads])
    assert code == 2
    assert doc["error"]["code"] == "bad_threads"
    validate(doc, schema("error"))


@pytest.mark.parametrize("request_text", THREADED_REQUESTS)
def test_threads_one_is_accepted(capsys, request_text):
    argv = request_text.split()
    code, doc = run_cli(capsys, argv + ["--threads", "1"])
    assert code == 0
    assert doc == run_cli(capsys, argv)[1]


@pytest.mark.parametrize("argv", [["qk", "--k", "4"], ["verify", "aitch"]])
def test_converse_scans_start_no_thread(capsys, monkeypatch, argv):
    def refuse(thread):
        raise RuntimeError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, _ = run_cli(capsys, argv)
    assert code == 0


@pytest.mark.parametrize("request_text", ["nfc --c1 1 --c2 1", "reproduce"])
@pytest.mark.parametrize("threads", ["0", "-1", "1"])
def test_threads_is_refused_where_unused(capsys, request_text, threads):
    code, doc = run_cli(capsys, request_text.split() + ["--threads", threads])
    assert code == 2
    assert doc["error"]["code"] == "bad_arguments"
    validate(doc, schema("error"))


def test_bad_caps_and_bad_arguments(capsys):
    code, doc = run_cli(capsys, ["capacity", "--case", "01", "--c1", "abc", "--c2", "1"])
    assert code == 2
    assert doc["error"]["code"] == "bad_caps"
    code, doc = run_cli(capsys, ["capacity", "--case", "00", "--c1", "inf", "--c2", "1"])
    assert code == 2
    assert doc["error"]["code"] == "bad_caps"
    code, doc = run_cli(capsys, ["capacity", "--case", "02", "--c1", "1", "--c2", "1"])
    assert code == 2
    assert doc["error"]["code"] == "bad_arguments"
    validate(doc, schema("error"))
    argv = ["capacity", "--case", "00", "--c1", "2", "--c2", "1", "--target", "identity"]
    code, doc = run_cli(capsys, argv)
    assert code == 2
    assert doc["error"]["code"] == "bad_arguments"


def test_construct_output_passes_the_printed_code_oracle(capsys):
    for case in ("00", "01", "10", "11"):
        for k in range(1, 6):
            argv = ["construct", "--case", case, "--c1", "3", "--c2", "2", "--k", str(k)]
            code, doc = run_cli(capsys, argv)
            assert code == 0
            assert printed_code_admissible(doc["code"]), (case, k)
            # Labels are first-seen, so psi["0,0"] decodes x = y = 0...0.
            doc["code"]["psi"]["0,0"] = "1" + doc["code"]["psi"]["0,0"][1:]
            assert not printed_code_admissible(doc["code"]), (case, k)


# A cheap request per subcommand; the sweep sets each integer option on top of it.
SWEEP_BASES = {
    ("capacity",): "capacity --case 01 --c1 2 --c2 1",
    ("construct",): "construct --case 01 --c1 2 --c2 1 --k 1",
    ("verify", "aitch"): "verify aitch --l-max 8",
    ("verify", "sumset-bound"): "verify sumset-bound --k-max 2 --samples 2",
    ("qk",): "qk --k 2 --l 1",
    ("chim",): "chim --k 1",
    ("gamma-pair",): "gamma-pair --k 2",
}


def _int_options(parser, path=()):
    """(subcommand path, option) for every type=int option of every subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _int_options(sub, path + (name,))
        elif action.type is int and "--threads" not in action.option_strings:
            yield path, action.option_strings[0]


def test_integer_options_sweep(capsys):
    started = time.perf_counter()
    requests = [
        SWEEP_BASES[path].split() + [option, str(value)]
        for path, option in _int_options(build_parser())
        for value in (-1, 0, 1)
    ]
    assert {tuple(argv[:2]) for argv in requests} >= {("qk", "--k"), ("chim", "--k")}
    for argv in requests:
        code, doc = run_cli(capsys, argv)
        assert code in (0, 2), argv
        name = "error" if code == 2 else "-".join(argv[:2]) if argv[0] == "verify" else argv[0]
        validate(doc, schema(name))
    assert time.perf_counter() - started < 3.0


CONSTRUCT21 = ["construct", "--c1", "2", "--c2", "1"]


def test_emit_writes_the_same_report(capsys, tmp_path):
    target = tmp_path / "out.json"
    for argv in (["qk", "--k", "2", "--l", "2"], CONSTRUCT21 + ["--case", "11", "--k", "4"]):
        code = main(argv + ["--emit", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert target.read_text() == out


def test_emit_failure_is_a_structured_error(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, doc = run_cli(capsys, ["qk", "--k", "2", "--l", "2", "--emit", str(target)])
    assert code == 2
    assert doc["error"]["code"] == "emit_failed"
    assert doc["error"]["details"]["path"] == str(target)
    validate(doc, schema("error"))


def test_table_format(capsys):
    code = main(["capacity", "--case", "01", "--c1", "2", "--c2", "1", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value = 1.630929753571" in out
    assert "formula = log3(6)" in out
    # construct's code is printed from pre-rendered text; the table still renders the report.
    for case in ("00", "01", "10", "11"):
        argv = CONSTRUCT21 + ["--case", case, "--k", "2"]
        code, doc = run_cli(capsys, argv)
        assert code == 0
        assert main(argv + ["--format", "table"]) == 0
        want = io.StringIO()
        _print_table(doc, want)
        assert capsys.readouterr().out == want.getvalue(), case


def test_timings_flag_adds_elapsed(capsys):
    code, doc = run_cli(capsys, ["capacity", "--case", "00", "--c1", "1", "--c2", "1", "--timings"])
    assert code == 0
    assert "elapsed_ms" in doc
    validate(doc, schema("capacity"))
    assert main(CONSTRUCT21 + ["--case", "01", "--k", "3", "--timings"]) == 0
    out = capsys.readouterr().out
    keys = [key for key, _ in json.loads(out, object_pairs_hook=list)]
    assert keys[-2:] == ["code", "elapsed_ms"]
    validate(json.loads(out), schema("construct"))


def test_output_is_deterministic_in_process(capsys):
    argv = ["nfc", "--c1", "2", "--c2", "1"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point_is_deterministic():
    argv = [sys.executable, "-m", "zefc", "capacity", "--case", "11", "--c1", "2", "--c2", "1"]
    runs = [subprocess.run(argv, capture_output=True, text=True) for _ in range(2)]
    assert all(run.returncode == 0 for run in runs)
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["formula"] == "(C1+C2)/log2(3)"


def test_module_entry_point_error_exit():
    argv = [sys.executable, "-m", "zefc", "qk", "--k", "9"]
    run = subprocess.run(argv, capture_output=True, text=True)
    assert run.returncode == 2
    assert json.loads(run.stdout)["error"]["code"] == "exact_mode_limit"


def _rounded_report(obj):
    """obj with every float rounded to 12 places and tuples as lists, key order kept."""
    if isinstance(obj, float):
        return round(obj, 12)
    if isinstance(obj, dict):
        return {key: _rounded_report(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded_report(value) for value in obj]
    return obj


TEXTS = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é—🙂", "a\"b\\c", ""])
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.integers(-(10**9), 10**9).map(lambda n: n / 3)
    | TEXTS
)
KEYS = TEXTS | st.integers(-5, 5) | st.booleans() | st.none() | st.floats(-2, 2)
REPORTS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(REPORTS)
def test_render_matches_json_dumps(report):
    assert _render(report) == json.dumps(_rounded_report(report), indent=2)


def test_render_falls_back_to_default_for_error_details():
    details = {"caps": (Fraction(7, 3), 0.1 + 0.2), "seen": {3}, "empty": {}}
    want = json.dumps(_rounded_report(details), indent=2, default=str)
    assert _render(details, default=str) == want
