"""Tests of the benchmark itself: span self time, output checks, and the printed metrics.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def columns(rows):
    """Span columns from (sid, parent, start, end) rows."""
    sid, parent, start, end = (np.array(c, dtype=np.int64) for c in zip(*rows))
    return {"sid": sid, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_the_union_of_child_intervals():
    cols = columns(
        [
            (1, 0, 0, 100),  # root
            (2, 1, 10, 30),  # two children that overlap, as chunks on two threads do
            (3, 1, 20, 50),
            (4, 1, 60, 70),
            (5, 2, 12, 15),  # grandchild: counts against span 2 only
            (6, 0, 200, 210),  # a second root with no children
        ]
    )
    assert spans.self_times(cols).tolist() == [50, 17, 30, 10, 3, 10]


def test_self_time_does_not_depend_on_row_order():
    rows = [(1, 0, 0, 100), (2, 1, 10, 30), (3, 1, 20, 50), (4, 1, 60, 70), (5, 2, 12, 15)]
    order = [4, 2, 0, 3, 1]
    shuffled = spans.self_times(columns([rows[i] for i in order]))
    assert shuffled.tolist() == [[50, 17, 30, 10, 3][i] for i in order]


def test_tracer_records_parents_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("codec.check_admissible", lambda x: x + 1)
    outer = tracer.wrap("cli.main", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    cols = tracer.columns()
    names = [tracer.names[i] for i in cols["name"]]
    assert sorted(names) == ["cli.main", "codec.check_admissible", "codec.check_admissible"]
    main_id = cols["sid"][names.index("cli.main")]
    parents = [p for p, n in zip(cols["parent"], names) if n != "cli.main"]
    assert parents == [main_id, main_id]
    assert (spans.self_times(cols) >= 0).all()


def test_layer_metrics_name_every_per_layer_metric():
    tracer = spans.Tracer()
    tracer.wrap("nfc.n_cf", lambda: None)()
    memo = type("Info", (), {"hits": 3, "misses": 1})()
    metrics = spans.layer_metrics(tracer.columns(), tracer.names, tracer.counts, memo)
    run_added = {"cli.out_bytes", "trace.wall_ref_s", "trace.untraced_wall_ref_s", "trace.overhead_s"}
    assert set(metrics) | run_added == {name for name, _, _ in spans.PER_LAYER}
    assert metrics["nfc.n_cf.calls"] == 1
    assert metrics["nfc.structure_memo.hit_ratio"] == 0.75


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(spans.PER_LAYER)


@pytest.fixture(scope="module")
def validators():
    return checks.load_validators(ROOT / "schemas")


def nfc_output(gap):
    doc = {
        "version": "0.1.0",
        "query": {"command": "nfc", "c1": "2", "c2": "1"},
        "edges": 8,
        "capacity": 1.630929753571,
        "bound_enum": 1.892789260714,
        "bound_formula": 1.892789260714,
        "witness_cut": ["e1", "e2", "e3"],
        "witness_classes": 3,
        "gap": gap,
    }
    return json.dumps(doc, indent=2)


def test_checks_catch_each_kind_of_wrong_output(validators):
    req = workloads.Request(("nfc", "--c1", "2", "--c2", "1"))
    good = nfc_output(0.261859507143)
    digests = {req.key: checks.digest(req, good)}
    assert checks.problems(req, 0, good, validators, digests) == []
    assert checks.problems(req, 2, good, validators, digests) == ["exit code 2, expected 0"]
    assert "gap" in checks.problems(req, 0, nfc_output(0.0), validators, None)[0]
    assert checks.problems(req, 0, nfc_output(0.3), validators, digests) == [
        "output differs from the recorded digest"
    ]
    assert checks.problems(req, 0, good.replace('"edges": 8', '"edges": 1'), validators, None)[0].startswith("schema")
    refusal = workloads.Request(("qk", "--k", "9"), exit_code=2)
    assert checks.problems(refusal, 2, '{"error": {"code": "x", "message": "y"}}', validators, None) == []
    assert checks.problems(refusal, 2, '{"oops": 1}', validators, None)[0].startswith("schema")


def test_checks_compare_an_output_that_was_not_kept_by_its_digest(validators):
    req = workloads.Request(("nfc", "--c1", "2", "--c2", "1"))
    sha = checks.digest(req, nfc_output(0.261859507143))
    digests = {req.key: sha}
    assert checks.problems(req, 0, None, validators, digests, sha) == []
    assert checks.problems(req, 0, None, validators, digests, "0" * 64) == [
        "output differs from the recorded digest"
    ]


def test_reproduce_digest_ignores_its_timing_value():
    req = workloads.Request(("reproduce",))
    one = '{"details": {"queries": 24, "max_query_ms": 0.0058}}'
    two = '{"details": {"queries": 24, "max_query_ms": 0.007}}'
    assert checks.digest(req, one) == checks.digest(req, two)


def test_every_workload_has_refusals_and_a_fixed_size():
    for name in ("codes", "cutbound", "converse"):
        one, two = workloads.requests(name, 1), workloads.requests(name, 2)
        assert any(r.exit_code == 2 for r in one)
        assert sorted(r.key for r in one if not r.seeded) == sorted(r.key for r in two if not r.seeded)
    assert not set(workloads.LEFT_OUT_HANGS) & {
        r.key for name in workloads.WORKLOADS for r in workloads.requests(name, 1)
    }


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_named_metric(trace, section):
    done = bench("--workload", "converse", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert report["failed_frac"] == 0
    assert set(report["provenance"]) == {
        "git_commit", "source_sha256", "nproc", "threads_default", "python", "numpy", "seed"
    }
    if trace:
        assert result["metrics"]["coloring.mixed_min_pair_sumset.s"]["value"] > 0
        assert result["metrics"]["parallel.chunked_map.calls"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "codes", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
