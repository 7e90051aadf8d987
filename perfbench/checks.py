"""Correctness checks on one request's outcome: exit code, schema, invariant, digest."""

import hashlib
import json
import re
from fractions import Fraction

from jsonschema import Draft202012Validator

# `reproduce` reports the slowest capacity query it timed; that one value is a
# measurement, so it is masked before the report is hashed.
_TIMING_FIELD = re.compile(r'"max_query_ms": [-+0-9.eE]+')


def digest(request, stdout):
    """SHA-256 of a report, with the timing value of `reproduce` masked."""
    if request.argv[0] == "reproduce":
        stdout = _TIMING_FIELD.sub('"max_query_ms": null', stdout)
    return hashlib.sha256(stdout.encode()).hexdigest()


def schema_name(request, exit_code):
    if exit_code == 2:
        return "error"
    if request.argv[0] == "verify":
        return f"verify-{request.argv[1]}"
    return request.argv[0]


def load_validators(schema_dir):
    """One validator per schema file, keyed by its stem (`nfc`, `verify-aitch`, ...)."""
    return {
        path.stem: Draft202012Validator(json.loads(path.read_text()))
        for path in schema_dir.glob("*.json")
    }


def _invariant(doc):
    """Problems with the command's own invariant, as a list of strings."""
    command = doc["query"]["command"]
    if command == "construct":
        if doc["admissible"] is False:
            return ["reported code is not admissible"]
    elif command == "capacity":
        achieved = doc.get("achieved")
        if achieved is not None and not achieved <= min(doc["value"], doc["converse_bound"]) + 1e-12:
            return [f"achieved rate {achieved} exceeds capacity or converse bound"]
    elif command == "nfc":
        problems = []
        if doc["bound_enum"] != doc["bound_formula"]:
            problems.append(f"bound_enum {doc['bound_enum']} != bound_formula {doc['bound_formula']}")
        # zefc orders the caps so that c1 >= c2 before it builds the network.
        low, high = sorted((Fraction(doc["query"]["c1"]), Fraction(doc["query"]["c2"])))
        if (doc["gap"] > 0) != (high > low):
            problems.append(f"gap {doc['gap']}: positive iff c1 > c2 fails")
        return problems
    elif command == "verify":
        counts = [doc["violations"]] if "violations" in doc else [e["violations"] for e in doc["entries"]]
        if any(counts):
            return [f"violations {counts}"]
    elif command == "qk":
        bad = [row["l"] for row in doc["rows"] if not row["lower"] <= row["value"] <= row["upper"]]
        if bad:
            return [f"value outside [lower, upper] at l={bad}"]
    elif command == "gamma-pair":
        k = doc["query"]["k"]
        if doc["value"] != 3 * (1 << (k - 1)):
            return [f"value {doc['value']} != 3*2^(k-1)"]
    elif command == "reproduce":
        if not doc["passed"]:
            return ["acceptance suite did not pass"]
    return []


def problems(request, exit_code, stdout, validators, digests, sha256=None):
    """Every way the outcome of a request is wrong; empty when it is correct.

    `stdout` is the output, or None when only its SHA-256 `sha256` was kept.
    `digests` maps request keys to recorded SHA-256 digests; None skips that
    check. An output that matches its recorded digest is byte-identical to one
    that record.py checked in full, so it is not parsed again.
    """
    if exit_code != request.exit_code:
        return [f"exit code {exit_code}, expected {request.exit_code}"]
    hashed = exit_code == 0 and not request.seeded and digests is not None
    if hashed:
        want = digests.get(request.key)
        if want is None:
            return ["no recorded digest"]
        if (digest(request, stdout) if stdout is not None else sha256) == want:
            return []
        if stdout is None:
            return ["output differs from the recorded digest"]
    try:
        doc = json.loads(stdout)
    except ValueError as err:
        return [f"output is not JSON: {err}"]
    found = [
        f"schema: {err.message}"
        for err in validators[schema_name(request, exit_code)].iter_errors(doc)
    ][:3]
    if found or exit_code != 0:
        return found
    found += _invariant(doc)
    if hashed:
        found.append("output differs from the recorded digest")
    return found
