"""Command-line front end: JSON reports for every computation, plus `reproduce`."""

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import time

from . import __version__
from .acceptance import run_all
from .capacity import capacity, construct_for_case
from .codec import ChannelCaps, SwitchPair, check_admissible, code_parts, rate_account
from .coloring import (
    EXACT_CHIM_LIMIT,
    chi_m,
    mixed_min_pair_sumset,
    q_k,
    verify_aitch_superadditivity,
    verify_sumset_lower_bound,
)
from .errors import ZefcError
from ._parallel import thread_count
from .nfc import nontightness_report

MAX_QK_TABLE_K = 10
# construct reports "admissible": null above this k. The recorded benchmark report of
# `construct ... --k 9` carries that null, so raising it to MAX_EXHAUSTIVE_K waits.
MAX_ADMISSIBLE_CHECK_K = 8
# --samples must lie in [1, this]; it and --seed are echoed but change no report.
MAX_SUMSET_SAMPLES = 2000


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports problems as machine-readable errors."""

    def error(self, message):
        raise ZefcError("bad_arguments", message)


# construct's payload carries this string where its code table goes. Only this
# exact string dumps to its JSON text, "\u0000code", so the dumped report is split
# there and the table's blocks are written in its place.
_TABLE = "\0code"


def _rounded(obj):
    """obj with every float rounded to 12 places and tuples as lists, key order kept."""
    if isinstance(obj, float):
        return round(obj, 12)
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(value) for value in obj]
    return obj


def _dumps(payload, default=None):
    """The report text: json.dumps(indent=2) of payload, floats rounded, and a newline."""
    return json.dumps(_rounded(payload), indent=2, default=default) + "\n"


def _chunks(text, table=None):
    """The report's text in the strings to write it in.

    A report without a code table is one string. Otherwise the pieces of table,
    a codec.code_parts iterable, are yielded one by one in place of the marker.
    """
    if table is None:
        return (text,)
    head, tail = text.split(json.dumps(_TABLE), 1)
    return itertools.chain((head,), table, (tail,))


def _caps_of(args):
    return ChannelCaps.of(args.c1, args.c2)


def _switches_of(args):
    return SwitchPair.from_string(args.case)


def _cmd_capacity(args):
    result = capacity(_switches_of(args), _caps_of(args), witness_k=args.k)
    payload = {
        "query": {
            "command": "capacity",
            "case": args.case,
            "c1": args.c1,
            "c2": args.c2,
            "target": "arithmetic_sum",
        },
        "value": result.value,
        "formula": result.formula,
    }
    if args.k is not None:
        payload["query"]["k"] = args.k
        payload["achieved"] = result.achievable_witness
        payload["converse_bound"] = result.converse_bound
    return payload, 0


def _cmd_construct(args):
    caps = _caps_of(args)
    code = construct_for_case(_switches_of(args), args.k, caps)
    acct = rate_account(code, caps)
    admissible = None
    if args.k <= MAX_ADMISSIBLE_CHECK_K:
        admissible = check_admissible(code).ok
    return {
        "query": {
            "command": "construct",
            "case": args.case,
            "c1": args.c1,
            "c2": args.c2,
            "k": args.k,
        },
        "name": code.name,
        "rate": str(acct.rate),
        "uses": {"n1": acct.n1, "n2": acct.n2, "n": acct.n},
        "admissible": admissible,
        # main writes this table's blocks in place of the marker it puts here.
        "code": code_parts(code, pad="  "),
    }, 0


def _cmd_verify(args):
    if args.check == "aitch":
        report = verify_aitch_superadditivity(args.l_max, tau=args.tau)
        return {
            "query": {
                "command": "verify",
                "check": "aitch",
                "l_max": args.l_max,
                "tau": report.tau,
            },
            "checked": report.checked,
            "violations": report.violations,
            "violation_examples": list(report.violation_examples),
            "counterexample_above_tau": report.tau_maximality,
        }, 0
    if not 1 <= args.samples <= MAX_SUMSET_SAMPLES:
        message = f"samples must lie in [1, {MAX_SUMSET_SAMPLES}]"
        raise ZefcError("bad_samples", message, samples=args.samples)
    report = verify_sumset_lower_bound(args.k_max)
    entries = []
    for entry in report.entries:
        row = {
            "k": entry["k"],
            "mode": entry["mode"],
            "subsets_checked": entry["subsets_checked"],
            "violations": len(entry["violations"]),
        }
        if "equality_counts" in entry:
            row["equality_counts"] = {str(l): c for l, c in entry["equality_counts"].items()}
        if "certificate" in entry:
            row["certificate"] = entry["certificate"]
        entries.append(row)
    return {
        "query": {
            "command": "verify",
            "check": "sumset-bound",
            "k_max": args.k_max,
            "samples": args.samples,
            "seed": args.seed,
        },
        "entries": entries,
    }, 0


def _cmd_qk(args):
    if args.bracket and args.l is None and args.k > MAX_QK_TABLE_K:
        raise ZefcError(
            "bad_arguments", f"--l is required for k>{MAX_QK_TABLE_K} (the table has 2^k rows)"
        )
    # Clamped so that 1 << top stays small and nonnegative; q_k refuses a clamped k at l = 1.
    top = min(max(args.k, 0), MAX_QK_TABLE_K)
    ells = range(1, (1 << top) + 1) if args.l is None else [args.l]
    results = [q_k(args.k, l, bracket=args.bracket) for l in ells]
    rows = []
    for result in results:
        row = {
            "l": result.l,
            "value": result.value,
            "lower": result.lower,
            "upper": result.upper,
            "exact": result.exact,
        }
        if result.exact:
            row["witness"] = list(result.witness)
        rows.append(row)
    return {
        "query": {
            "command": "qk",
            "k": args.k,
            "l": args.l,
            "bracket": args.bracket,
        },
        "rows": rows,
    }, 0


def _cmd_chim(args):
    # Clamped so that 1 << top stays small and nonnegative; chi_m refuses a clamped k at m = 1.
    top = min(max(args.k, 0), EXACT_CHIM_LIMIT)
    ms = range(1, (1 << top) + 1) if args.m is None else [args.m]
    results = [chi_m(args.k, m) for m in ms]
    rows = [
        {"m": r.m, "value": r.value, "witness": [list(block) for block in r.witness]}
        for r in results
    ]
    return {
        "query": {"command": "chim", "k": args.k, "m": args.m},
        "rows": rows,
    }, 0


def _cmd_gamma_pair(args):
    result = mixed_min_pair_sumset(args.k)
    return {
        "query": {"command": "gamma-pair", "k": args.k},
        "value": result.value,
        "witness": list(result.witness),
    }, 0


def _cmd_nfc(args):
    caps = _caps_of(args)
    report = nontightness_report(caps)
    return {
        "query": {"command": "nfc", "c1": args.c1, "c2": args.c2},
        "edges": report.edges,
        "capacity": report.capacity,
        "bound_enum": report.bound_enum,
        "bound_formula": report.bound_formula,
        "witness_cut": list(report.witness_cut),
        "witness_classes": report.witness_ncf,
        "gap": report.gap,
    }, 0


def _cmd_reproduce(args):
    results = run_all()
    rows = []
    for result in results:
        row = {
            "name": result.name,
            "passed": result.passed,
            "failures": list(result.failures),
            "details": result.details,
        }
        if args.timings:
            row["elapsed_s"] = round(result.elapsed_s, 3)
        rows.append(row)
    ok = all(result.passed for result in results)
    payload = {
        "query": {"command": "reproduce"},
        "results": rows,
        "passed": ok,
    }
    return payload, 0 if ok else 1


def _print_table(payload, stream):
    """Plain-text rendering: scalars as key = value, row lists as columns."""

    def emit(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                emit(f"{prefix}.{key}" if prefix else str(key), sub)
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            columns = list(value[0])
            print(f"{prefix}: " + "\t".join(columns), file=stream)
            for row in value:
                print("  " + "\t".join(str(row.get(c, "")) for c in columns), file=stream)
        else:
            print(f"{prefix} = {value}", file=stream)

    emit("", payload)


def _common(sub, threads=False):
    sub.add_argument("--format", choices=("json", "table"), default="json")
    sub.add_argument("--emit", metavar="PATH", help="also write the JSON report here")
    sub.add_argument("--timings", action="store_true", help="include elapsed_ms in output")
    if threads:
        sub.add_argument("--threads", type=int, default=None)
    else:
        sub.set_defaults(threads=None)


def _capacity_arguments(sub):
    sub.add_argument("--case", required=True, choices=("00", "01", "10", "11"))
    sub.add_argument("--c1", required=True)
    sub.add_argument("--c2", required=True)
    sub.add_argument("--k", type=int, default=None, help="also build a k-shot witness")
    _common(sub)
    sub.set_defaults(handler=_cmd_capacity)


def _construct_arguments(sub):
    sub.add_argument("--case", required=True, choices=("00", "01", "10", "11"))
    sub.add_argument("--c1", required=True)
    sub.add_argument("--c2", required=True)
    sub.add_argument("--k", type=int, required=True)
    _common(sub)
    sub.set_defaults(handler=_cmd_construct)


def _verify_arguments(sub):
    checks = sub.add_subparsers(dest="check", required=True)
    aitch = checks.add_parser("aitch", help="superadditivity of the l^tau bound shape")
    aitch.add_argument("--l-max", type=int, default=1024, dest="l_max")
    aitch.add_argument("--tau", type=float, default=None)
    _common(aitch)
    aitch.set_defaults(handler=_cmd_verify)
    sumset = checks.add_parser("sumset-bound", help="sumset size lower bound")
    sumset.add_argument("--k-max", type=int, default=4, dest="k_max")
    sumset.add_argument("--samples", type=int, default=200)
    sumset.add_argument("--seed", type=int, default=0)
    _common(sumset, threads=True)
    sumset.set_defaults(handler=_cmd_verify)


def _qk_arguments(sub):
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--l", type=int, default=None)
    sub.add_argument("--bracket", action="store_true", help="bounds instead of exact values")
    _common(sub, threads=True)
    sub.set_defaults(handler=_cmd_qk)


def _chim_arguments(sub):
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--m", type=int, default=None)
    _common(sub)
    sub.set_defaults(handler=_cmd_chim)


def _gamma_pair_arguments(sub):
    sub.add_argument("--k", type=int, required=True)
    _common(sub, threads=True)
    sub.set_defaults(handler=_cmd_gamma_pair)


def _nfc_arguments(sub):
    sub.add_argument("--c1", required=True)
    sub.add_argument("--c2", required=True)
    _common(sub)
    sub.set_defaults(handler=_cmd_nfc)


def _reproduce_arguments(sub):
    _common(sub)
    sub.set_defaults(handler=_cmd_reproduce)


# Each command's name, its help line in `zefc -h`, and the function that adds its arguments.
_COMMANDS = {
    "capacity": ("closed-form compression capacity", _capacity_arguments),
    "construct": ("explicit k-shot code for a case", _construct_arguments),
    "verify": ("property checks with reports", _verify_arguments),
    "qk": ("minimum sumset size over subsets of size l", _qk_arguments),
    "chim": ("partition chromatic table", _chim_arguments),
    "gamma-pair": ("minimum mixed-pair sumset size", _gamma_pair_arguments),
    "nfc": ("cut-set bound vs capacity on the relay network", _nfc_arguments),
    "reproduce": ("run the full acceptance suite", _reproduce_arguments),
}


@functools.lru_cache(maxsize=None)
def build_parser(command=None):
    """The parser of one command, or with command None the full `zefc` parser.

    A command's parser reads the arguments after its name, the same way as the
    full parser's subparser for that command, and sets `command` to its name.
    Building the full parser costs every command's arguments, so `main` builds it
    only for a request that does not start with a command's name.

    Each parser is built on its first call and reused by every later one. None is
    built at import: the handlers are looked up when a parser is built, so a
    wrapper set on a `_cmd_*` function before the first request is the one it calls.
    """
    if command is not None:
        parser = _Parser(prog=f"zefc {command}")
        parser.set_defaults(command=command)
        _COMMANDS[command][1](parser)
        return parser
    parser = _Parser(prog="zefc", description="Zero-error sum compression toolkit.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(commands.add_parser(name, help=help_line))
    return parser


def _write(stream, write):
    """Call write(stream) and flush it; the OSError that raised, or None.

    A closed pipe or a full disk raises here. The stream's fd is then pointed at
    os.devnull, so the flush at interpreter exit cannot raise again.
    """
    try:
        write(stream)
        stream.flush()
    except OSError as exc:
        with contextlib.suppress(OSError, ValueError):  # a stand-in stream has no fd
            fd = stream.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return exc
    return None


def _send(write):
    """Write to stdout with _write; on failure, a stdout_failed error to stderr and False.

    Like every stderr write, that error is dropped if it fails too: a failed
    stderr write never changes the exit code.
    """
    exc = _write(sys.stdout, write)
    if exc is not None:
        err = ZefcError("stdout_failed", "could not write the report to stdout", reason=exc.strerror)
        _write(sys.stderr, lambda out: out.write(_dumps({"error": err.payload()}, default=str)))
    return exc is None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # --version, -h, no argument, an unknown command or an option before the
    # command go to the full parser.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv if command is None else argv[1:])
        thread_count(args.threads)
        started = time.perf_counter()
        payload, exit_code = args.handler(args)
        payload = {"version": __version__, **payload}
        if args.timings:
            payload["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
        table = payload.get("code")  # construct's code_parts table, if any
        if table is not None:
            payload["code"] = _TABLE
        text = _dumps(payload)
        if args.emit:
            # The file is written first, so a failed emit prints only the error; the
            # code table is rendered once for it and once more for stdout.
            try:
                with open(args.emit, "w") as fh:
                    fh.writelines(_chunks(text, table))
            except OSError as exc:
                raise ZefcError(
                    "emit_failed", "could not write the report", path=args.emit, reason=exc.strerror
                ) from exc
        if args.format == "table":
            written = _send(lambda out: _print_table(json.loads("".join(_chunks(text, table))), out))
        else:
            written = _send(lambda out: out.writelines(_chunks(text, table)))
        if not written:
            return 2
        if args.command == "reproduce":
            passed = sum(1 for row in payload["results"] if row["passed"])
            note = f"# {passed}/{len(payload['results'])} criteria passed\n"
            _write(sys.stderr, lambda out: out.write(note))
        return exit_code
    except ZefcError as err:
        _send(lambda out: out.write(_dumps({"error": err.payload()}, default=str)))
        return 2


if __name__ == "__main__":
    sys.exit(main())
