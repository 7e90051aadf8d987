"""Run each workload ten times with seeds 1-10 and record the baseline.

    python3 perfbench/baseline.py

For every end-to-end metric it prints the median, the quartiles and the spread
(quartile distance over the median, as `statistics.quantiles(values, n=4)`
gives them) against the metric's bound in BENCHMARK.json. It then makes one
traced run per workload and writes everything, with provenance, to
perfbench/baseline.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def bench(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed: {report['failures']}")
    return report, result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {"run_seconds": SPEC["run_seconds"], "runs": len(SEEDS), "workloads": {}}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        runs = [bench(workload, seed, 0) for seed in SEEDS]
        out.setdefault("provenance", runs[0][0]["provenance"])
        metrics = {
            name: summary([result["metrics"][name]["value"] for _, result in runs]) for name in bounds
        }
        for name, stats in metrics.items():
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(
                f"{workload:10s} {name:12s} median {stats['median']:10.4f} "
                f"spread {stats['spread']:.4f} bound {bounds[name]}{flag}",
                file=sys.stderr,
            )
        report, _ = bench(workload, SEEDS[0], 1)
        out["workloads"][workload] = {
            "seeds": list(SEEDS),
            "end_to_end": metrics,
            "per_layer": report["per_layer"],
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
