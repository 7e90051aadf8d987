"""Byte-identity gate: every recorded benchmark report is reproduced exactly.

Runs each unseeded request of `perfbench/workloads.py` that must exit 0 through
`zefc.cli.main` in-process and compares the SHA-256 of its stdout, as
`perfbench/checks.digest` computes it, with `perfbench/digests.json`. Seeded
requests have no digest; they go through `perfbench/checks.problems` (exit
code, schema and invariant) at a few workload seeds, and so do the requests
that must be refused (exit 2 and the `error` schema). Nothing under
`perfbench/` is written.
"""

import contextlib
import io
import json
import pathlib
import random
import sys

import pytest

from zefc.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


def _run(request):
    """(exit code, stdout) of the request run through zefc.cli.main in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(request.argv))
    return code, out.getvalue()


def _recorded(workload):
    """The workload's requests that have a recorded digest: exit 0 and not seeded."""
    reqs = workloads.WORKLOADS[workload](random.Random(0))
    return [r for r in reqs if r.exit_code == 0 and not r.seeded]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reports_match_recorded_digests(workload):
    drifted = []
    for request in _recorded(workload):
        code, out = _run(request)
        if code != 0 or checks.digest(request, out) != DIGESTS[request.key]:
            drifted.append(request.key)
    assert drifted == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_requests_pass_the_benchmark_checks(seed):
    validators = checks.load_validators(PERFBENCH.parent / "schemas")
    found = {}
    for name in sorted(workloads.WORKLOADS):
        for request in workloads.requests(name, seed):
            if not request.seeded:
                continue
            found[request.key] = checks.problems(request, *_run(request), validators, DIGESTS)
    assert found and all(problems == [] for problems in found.values()), found


def test_refusals_stay_refused():
    # A change that answers a recorded refusal, such as `qk --k 9`, fails here
    # rather than only in the benchmark run.
    validators = checks.load_validators(PERFBENCH.parent / "schemas")
    found = {
        r.key: checks.problems(r, *_run(r), validators, DIGESTS)
        for name in sorted(workloads.WORKLOADS)
        for r in workloads.WORKLOADS[name](random.Random(0))
        if r.exit_code == 2
    }
    assert found and all(problems == [] for problems in found.values()), found


def test_every_recorded_request_is_covered():
    covered = {r.key for name in workloads.WORKLOADS for r in _recorded(name)}
    assert covered == set(DIGESTS)
