"""Byte-identity gate: every recorded benchmark report is reproduced exactly.

Runs each unseeded request of `perfbench/workloads.py` that must exit 0 through
`zefc.cli.main` in-process and compares the SHA-256 of its stdout, as
`perfbench/checks.digest` computes it, with `perfbench/digests.json`. Nothing
under `perfbench/` is written.
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


def _recorded(workload):
    """The workload's requests that have a recorded digest: exit 0 and not seeded."""
    reqs = workloads.WORKLOADS[workload](random.Random(0))
    return [r for r in reqs if r.exit_code == 0 and not r.seeded]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reports_match_recorded_digests(workload):
    drifted = []
    for request in _recorded(workload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(request.argv))
        if code != 0 or checks.digest(request, out.getvalue()) != DIGESTS[request.key]:
            drifted.append(request.key)
    assert drifted == []


def test_every_recorded_request_is_covered():
    covered = {r.key for name in workloads.WORKLOADS for r in _recorded(name)}
    assert covered == set(DIGESTS)
