"""zefc benchmark: runs one workload and prints its metrics on the last stdout line.

    python3 perfbench/run.py --workload codes --seed 1 --seconds 30 --trace 0

Each batch of CLI requests runs in a fresh interpreter (perfbench/worker.py),
one request after the other: a closed loop with one client. With --trace 0
the run repeats the batch while the next one still fits in --seconds and
reports end-to-end medians, with tracing off. With --trace 1 it runs one
untraced and one traced batch and reports the per-layer metrics of the traced
one, plus the tracing overhead between the two.

The line before the last holds the full report: provenance, failed_frac,
every sample and the first failures.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # interpreters that only set up, before each batch and after the last
DEADLINE_S = 170  # a run must end within 180 s
END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RAW = ("wall_s", "cpu_s", "run_delay_s", "speed")  # in the report line only

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from spans import PER_LAYER  # noqa: E402


class BenchError(Exception):
    """The run cannot produce a result."""


def spawn(workload, seed, trace, setup_only, deadline):
    """Run worker.py in a fresh interpreter; returns its JSON result and its duration."""
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(trace), str(setup_only)]
    started = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a batch did not finish before the run's deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), time.monotonic() - started


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the package sources and schemas, which names the code without git."""
    sha = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "schemas").glob("*.json")]):
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    setups = []

    def batch(trace):
        setups.extend(spawn(args.workload, args.seed, 0, 1, deadline)[0] for _ in range(SETUP_SAMPLES))
        return spawn(args.workload, args.seed, trace, 0, deadline)

    if args.trace:
        batches = [batch(t)[0] for t in (0, 1)]
    else:
        batches, durations, started = [], [], time.monotonic()
        while True:
            result, took = batch(0)
            batches.append(result)
            durations.append(took)
            next_end = time.monotonic() + statistics.median(durations)
            if next_end - started > args.seconds or next_end > deadline:
                break
    setups.extend(spawn(args.workload, args.seed, 0, 1, deadline)[0] for _ in range(SETUP_SAMPLES))
    untraced = [b for b in batches if "layers" not in b]
    setups += untraced
    end_to_end = {
        name: statistics.median(b[name] for b in (setups if name == "setup_s" else untraced))
        for name in [*END_TO_END, *RAW]
    }
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    first = batches[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "threads_default": first["threads_default"],
            "python": first["python"],
            "numpy": first["numpy"],
            "seed": args.seed,
        },
        "batches": len(batches),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": end_to_end,
        "samples": {
            name: [b[name] for b in (setups if name == "setup_s" else untraced)]
            for name in [*END_TO_END, *RAW]
        },
        "failures": [f for b in batches for f in b["failures"]][:20],
    }
    if args.trace:
        plain, traced = batches
        layers = dict(traced["layers"])
        layers["cli.out_bytes"] = traced["out_bytes"]
        layers["trace.wall_ref_s"] = traced["wall_ref_s"]
        layers["trace.untraced_wall_ref_s"] = plain["wall_ref_s"]
        layers["trace.overhead_s"] = traced["wall_ref_s"] - plain["wall_ref_s"]
        report["per_layer"] = layers
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="zefc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zefc" / "cli.py").is_file():
        print(f"zefc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report, result = measure(args)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
