"""CLI behavior: golden outputs, determinism, schema conformance, exit codes."""

import io
import json
import os
import pathlib
import argparse
import dataclasses
import errno
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from jsonschema import validate

from oracles import printed_code_admissible
from zefc import _parallel, cli, codec
from zefc.cli import _dumps, _print_table, _rounded, build_parser, main
from zefc.errors import ZefcError

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "schemas"
PERFBENCH = SCHEMAS.parent / "perfbench"


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
    ("capacity --case 01 --c1 2 --c2 1 --k 4194305", "k_too_large"),
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
    ("qk --k 0", "bad_k"),
    ("qk --k 11", "exact_mode_limit"),
    ("qk --k 2000 --l 3", "exact_mode_limit"),
    ("qk --k 9 --l 999", "exact_mode_limit"),
    ("qk --k 3 --l 9", "bad_ell"),
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


def test_chunked_map_keeps_chunk_order_on_threads():
    # No command reaches the threaded branch, which imports its pool on use.
    assert _parallel.chunked_map(lambda c: c * c, range(5), threads=3) == [0, 1, 4, 9, 16]


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


# One in-process sequence through the cached parser: answers, a refusal, --version
# (which exits), --timings and a subcommand with its own options.
PARSER_SEQUENCE = (
    "qk --k 3 --l 2",
    "qk --k 3",
    "capacity --case 02 --c1 1 --c2 1",
    "--version",
    "capacity --case 11 --c1 2 --c2 1 --k 4 --timings",
    "nfc --c1 3 --c2 1",
)


def _printed(capsys, argv):
    """(exit code, or ("SystemExit", code) if main exits; stdout with elapsed_ms masked)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr().out
    return code, re.sub(r'"elapsed_ms": [-0-9.e+]+', '"elapsed_ms": 0', out)


def test_cached_parser_leaks_no_state(capsys):
    build_parser.cache_clear()
    printed = [_printed(capsys, request.split()) for request in PARSER_SEQUENCE]
    # One parser each for qk, capacity and nfc, and the full parser for --version.
    assert build_parser.cache_info().misses == 4
    assert [code for code, _ in printed] == [0, 0, 2, ("SystemExit", 0), 0, 0]
    assert json.loads(printed[2][1])["error"]["code"] == "bad_arguments"
    assert '"elapsed_ms": 0' in printed[4][1]
    for request, want in zip(PARSER_SEQUENCE, printed):
        build_parser.cache_clear()
        assert _printed(capsys, request.split()) == want, request


# Requests the command's own parser must read as the full parser does: arguments
# each command lacks or does not know, and ways of spelling an option.
PARSER_EDGE_REQUESTS = (
    "capacity --case 01 --c1 2",
    "capacity --case 00 --c1 2 --c2 1 --target identity",
    "construct --case 01 --c1 2 --c2 1",
    "construct --case 01 --c1 2 --c2 1 --k x",
    "verify",
    "verify nope",
    "verify aitch --k-max 3",
    "verify sumset-bound --l-max 3",
    "verify aitch --l-max 8 extra",
    "qk",
    "qk --l 2",
    "qk --k 3 --threads",
    "chim",
    "chim --k 2 --l 3",
    "gamma-pair",
    "gamma-pair --k",
    "nfc",
    "nfc --c1 2",
    "nfc --c 2 --c2 1",
    "nfc --c1=2 --c2=1",
    "nfc --c1 2 --c2 1 --version",
    "nfc --c1 2 --c2 1 --threads 1",
    "nfc -- --c1 2 --c2 1",
    "reproduce extra",
    "reproduce --format xml",
    "reproduce --timings --timings --emit",
)


def _parity_requests():
    """Every request the parity test reads, each as an argv that starts with a command."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    texts = [text for text, _ in COSTLY_REQUESTS + BAD_INPUTS]
    texts += [text for text in PARSER_SEQUENCE if text.split()[0] in cli._COMMANDS]
    texts += PARSER_EDGE_REQUESTS
    argvs = [text.split() for text in texts]
    for name in workloads.WORKLOADS:
        argvs += [list(request.argv) for request in workloads.requests(name, seed=1)]
    return argvs


def _parsed(parser, argv):
    """The namespace parser reads from argv as {name: repr}, or the (code, message) it refuses with.

    Values are compared by repr, so that a --tau of nan equals itself.
    """
    try:
        return {name: repr(value) for name, value in vars(parser.parse_args(argv)).items()}
    except ZefcError as err:
        return err.code, err.message


def test_command_parser_reads_every_request_as_the_full_parser():
    argvs = _parity_requests()
    assert len(argvs) > 100 and {argv[0] for argv in argvs} == set(cli._COMMANDS)
    refused = 0
    for argv in argvs:
        want = _parsed(build_parser(), argv)
        assert _parsed(build_parser(argv[0]), argv[1:]) == want, argv
        refused += isinstance(want, tuple)
    assert refused >= len(PARSER_EDGE_REQUESTS) - 1  # all but the --c1=2 spelling


@pytest.mark.parametrize(
    "argv", [[name] for name in cli._COMMANDS] + [["verify", "aitch"], ["verify", "sumset-bound"]]
)
def test_command_parser_prints_the_full_parsers_help(capsys, argv):
    printed = []
    for parser, args in ((build_parser(), argv), (build_parser(argv[0]), argv[1:])):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(args + ["-h"])
        assert exc.value.code == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert printed[0].out.startswith(f"usage: zefc {' '.join(argv)} [-h]")


def test_handlers_are_looked_up_when_the_parser_is_built(capsys, monkeypatch):
    calls = []
    handler = cli._cmd_nfc

    def counting(args):
        calls.append(args.c1)
        return handler(args)

    build_parser.cache_clear()
    monkeypatch.setattr(cli, "_cmd_nfc", counting)
    try:
        assert main(["nfc", "--c1", "2", "--c2", "1"]) == 0
    finally:
        # Later requests must not reuse a parser that holds the counting wrapper.
        build_parser.cache_clear()
    capsys.readouterr()
    assert calls == ["2"]


def _subprocess_env():
    """The environment of a subprocess that imports the zefc these tests import."""
    paths = [str(pathlib.Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _run_module(*args):
    """`python -m zefc *args` in a subprocess."""
    argv = [sys.executable, "-m", "zefc", *args]
    return subprocess.run(argv, capture_output=True, text=True, env=_subprocess_env())


def _run_python(code):
    """The stripped stdout of `python -c code` in a fresh interpreter."""
    argv = [sys.executable, "-c", code]
    run = subprocess.run(argv, capture_output=True, text=True, env=_subprocess_env(), check=True)
    return run.stdout.strip()


def test_module_entry_point_is_deterministic():
    argv = ["capacity", "--case", "11", "--c1", "2", "--c2", "1"]
    runs = [_run_module(*argv) for _ in range(2)]
    assert all(run.returncode == 0 for run in runs)
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["formula"] == "(C1+C2)/log2(3)"


def test_module_entry_point_error_exit():
    run = _run_module("qk", "--k", "9")
    assert run.returncode == 2
    assert json.loads(run.stdout)["error"]["code"] == "exact_mode_limit"


def test_closed_pipe_is_a_structured_error():
    # The report runs to megabytes, so the writer is blocked on a full pipe when the
    # reader closes it after 100 bytes.
    argv = [sys.executable, "-m", "zefc", "construct", "--case", "00", "--c1", "1", "--c2", "1"]
    pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env())
    with subprocess.Popen(argv + ["--k", "8"], **pipes) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert head.startswith(b"{")
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"]["code"] == "stdout_failed"
    validate(doc, schema("error"))


class _FullStream(io.StringIO):
    """A stdout whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [["nfc", "--c1", "2", "--c2", "1"], ["chim", "--k", "9"]])
def test_failed_stdout_write_is_a_structured_error(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _FullStream())
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["code"] == "stdout_failed"
    assert doc["error"]["details"]["reason"] == os.strerror(errno.ENOSPC)
    validate(doc, schema("error"))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to fail writes on")
@pytest.mark.parametrize(
    "argv, full_stdout, want", [(["reproduce"], False, 0), (["chim", "--k", "2"], True, 2)]
)
def test_failed_stderr_write_keeps_the_exit_code(argv, full_stdout, want):
    # Every write to /dev/full fails with ENOSPC: reproduce's criteria count, and
    # the stdout_failed error that follows a failed report.
    with open("/dev/full", "w") as full:
        out = full if full_stdout else subprocess.PIPE
        run = subprocess.run(
            [sys.executable, "-m", "zefc", *argv], stdout=out, stderr=full, env=_subprocess_env()
        )
    assert run.returncode == want
    if not full_stdout:
        assert json.loads(run.stdout)["passed"] is True


def test_requests_never_import_numpy_ma():
    # A plain np.unique imports numpy.ma on its first call under numpy 2, which
    # costs each request that reaches it 10-20 ms.
    if _run_python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("importing numpy loads numpy.ma by itself")
    requests = [
        ["reproduce"],
        ["construct", "--case", "01", "--c1", "2", "--c2", "1", "--k", "6"],
        ["nfc", "--c1", "3", "--c2", "2"],
        ["chim", "--k", "3"],
        ["verify", "sumset-bound", "--k-max", "4"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from zefc.cli import main\n"
        f"for argv in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _run_python(code) == "False"


def test_a_request_builds_only_its_own_commands_parser():
    code = (
        "import contextlib, io\n"
        "from zefc.cli import build_parser, main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['nfc', '--c1', '2', '--c2', '1']) == 0\n"
        "print(build_parser.cache_info().currsize)\n"
    )
    assert _run_python(code) == "1"


def test_requests_never_import_a_thread_pool():
    # concurrent.futures loads logging: about 5 ms and 0.6 MB of every cold start.
    modules = ("concurrent.futures", "logging")
    loaded = f"print([name for name in {modules!r} if name in sys.modules])\n"
    if _run_python("import sys, numpy\n" + loaded) != "[]":
        pytest.skip("importing numpy loads a thread pool module by itself")
    requests = [
        ["capacity", "--case", "01", "--c1", "2", "--c2", "1", "--k", "12"],
        ["construct", "--case", "11", "--c1", "2", "--c2", "1", "--k", "4"],
        ["verify", "aitch", "--l-max", "64"],
        ["verify", "sumset-bound", "--k-max", "4"],
        ["qk", "--k", "3"],
        ["chim", "--k", "2"],
        ["gamma-pair", "--k", "4"],
        ["nfc", "--c1", "3", "--c2", "2"],
        ["reproduce"],
    ]
    assert {argv[0] for argv in requests} == set(cli._COMMANDS)
    code = (
        "import contextlib, io, sys\n"
        "from zefc.cli import main\n"
        + loaded
        + f"for argv in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        + loaded
    )
    assert _run_python(code).splitlines() == ["[]", "[]"]


def test_rounded_rounds_floats_at_any_depth_and_writes_tuples_as_lists():
    report = {"a": 1 / 3, "b": [(0.1 + 0.2, {"c": (2 / 3, 7, True, None, "x")})], "d": ()}
    want = {"a": 0.333333333333, "b": [[0.3, {"c": [0.666666666667, 7, True, None, "x"]}]], "d": []}
    # A tuple never equals a list, so == also checks that every tuple became a list.
    assert _rounded(report) == want


def test_rounded_keeps_every_key_and_its_order():
    report = {"z": 1, 3: 2, True: 3, None: 4, "a": {2.5: 0.1 + 0.2, "": {}}}
    rounded = _rounded(report)
    assert list(rounded) == ["z", 3, True, None, "a"]
    assert list(rounded["a"].items()) == [(2.5, 0.3), ("", {})]
    assert _dumps(report) == (
        '{\n  "z": 1,\n  "3": 2,\n  "true": 3,\n  "null": 4,\n'
        '  "a": {\n    "2.5": 0.3,\n    "": {}\n  }\n}\n'
    )


def test_error_details_render_through_str(capsys, monkeypatch):
    def refusing(args):
        raise ZefcError("bad_caps", "refused", caps=(Fraction(7, 3), 0.1 + 0.2), seen={3}, empty={})

    build_parser.cache_clear()
    monkeypatch.setattr(cli, "_cmd_nfc", refusing)
    try:
        code = main(["nfc", "--c1", "2", "--c2", "1"])
    finally:
        build_parser.cache_clear()
    assert code == 2
    details = {"caps": ["7/3", 0.3], "empty": {}, "seen": "{3}"}
    want = {"error": {"code": "bad_caps", "message": "refused", "details": details}}
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def test_reproduce_is_byte_identical_in_process(capsys):
    runs = []
    for _ in range(2):
        assert main(["reproduce"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["results"][0]["details"]["max_query_ms"] is None


class _Writes(io.StringIO):
    """A stdout that keeps the string of each write call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return super().write(text)


def _written(monkeypatch, argv):
    """(exit code, the strings main wrote to stdout, one per write call)."""
    out = _Writes()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", out)
        code = main(argv)
    assert "".join(out.calls) == out.getvalue()
    return code, out.calls


@pytest.mark.parametrize(
    "request_text",
    ["nfc --c1 2 --c2 1", "capacity --case 01 --c1 2 --c2 1 --k 12", "qk --k 2", "qk --k 9"],
)
def test_reports_without_a_code_table_are_one_write(monkeypatch, request_text):
    code, calls = _written(monkeypatch, request_text.split())
    assert code in (0, 2)
    assert len(calls) == 1
    json.loads(calls[0])


def test_construct_streams_its_code_in_blocks(monkeypatch):
    code, calls = _written(monkeypatch, CONSTRUCT21 + ["--case", "11", "--k", "7"])
    assert code == 0
    # No write holds more than one block of a table, let alone the whole report.
    assert len(calls) > 10
    assert max(map(len, calls)) <= codec.BLOCK_BYTES
    doc = json.loads("".join(calls))
    assert doc["code"]["images"] == [137, 16]


def _relabeled(code):
    """The code with one phi1 label past im1, refused when the code is rebuilt."""
    phi1 = np.array(code.phi1)
    phi1.flat[0] = code.im1
    return dataclasses.replace(code, phi1=phi1)


def _grown_image(code):
    """The code with im1 one larger and a psi row to match, so no label ever uses it."""
    psi = np.concatenate([code.psi, code.psi[:1]])
    return dataclasses.replace(code, im1=code.im1 + 1, psi=psi)


def _psi_out_of_range(code):
    """The code with one psi value past 3^k, set after construction checked it."""
    psi = np.array(code.psi)
    psi.flat[-1] = 3**code.k
    object.__setattr__(code, "psi", psi)
    return code


@pytest.mark.parametrize(
    "k,change,error",
    [
        ("11", None, "k_too_large"),
        ("0", None, "bad_k"),
        ("3", _relabeled, "bad_code"),
        ("3", _grown_image, "bad_image_count"),
        ("3", _psi_out_of_range, "bad_code"),
        ("9", _psi_out_of_range, "bad_code"),
    ],
)
@pytest.mark.parametrize("case", ["00", "01", "10", "11"])
def test_construct_refusals_print_only_the_error(monkeypatch, case, k, change, error):
    if change is not None:
        build = cli.construct_for_case
        monkeypatch.setattr(cli, "construct_for_case", lambda *a: change(build(*a)))
    code, calls = _written(monkeypatch, CONSTRUCT21 + ["--case", case, "--k", k])
    assert code == 2
    # One write of exactly one JSON object, which json.loads would refuse as extra data.
    assert len(calls) == 1
    doc = json.loads(calls[0])
    assert list(doc) == ["error"]
    assert doc["error"]["code"] == error
    validate(doc, schema("error"))


@pytest.mark.parametrize("block_bytes", [1, 1 << 40], ids=["one_row", "whole_table"])
def test_block_size_does_not_change_the_output(capsys, monkeypatch, tmp_path, block_bytes):
    target = tmp_path / "out.json"
    for case in ("00", "01", "10", "11"):
        argv = CONSTRUCT21 + ["--case", case, "--k", "7"]
        printed = {}
        for size in (codec.BLOCK_BYTES, block_bytes):
            with monkeypatch.context() as patch:
                patch.setattr(codec, "BLOCK_BYTES", size)
                assert main(argv + ["--emit", str(target)]) == 0
                json_out = capsys.readouterr().out
                assert target.read_bytes() == json_out.encode(), (case, size)
                assert main(argv + ["--format", "table"]) == 0
                printed[size] = (json_out, capsys.readouterr().out)
        assert printed[block_bytes] == printed[codec.BLOCK_BYTES], case
