"""One batch of a workload, in the fresh interpreter that run.py starts for it.

    python3 perfbench/worker.py WORKLOAD SEED TRACE(0|1) SETUP_ONLY(0|1)

Issues every request of the batch through `zefc.cli.main(argv)`, one after the
other, and checks each output as soon as its request completes, outside the
timed intervals. Prints one JSON object on its last stdout line.
"""

import time

import probe

# Set-up is the main thread's CPU time from interpreter start to the end of
# the imports below, at the reference speed of probes taken on either side.
# CPU time leaves out the time the host keeps the process off a CPU, and the
# speed scaling the stretches in which it runs slower.
_BEFORE = probe.sample()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import zefc.cli  # noqa: E402
from zefc._parallel import thread_count  # noqa: E402

import workloads  # noqa: E402

_SET_UP_CPU_S = time.thread_time()
_AFTER = probe.sample()
SETUP_S = (_SET_UP_CPU_S - _BEFORE[1]) * (_BEFORE[0] + _AFTER[0]) / 2

OUT_DIR = ROOT / ".perfbench"
KEEP_BYTES = 1_000_000  # outputs up to this size are kept for the checks; larger ones only hashed


class Capture(io.TextIOBase):
    """A request's stdout: encoded and hashed as it is written, kept only while small.

    Encoding and hashing stand in for the cost of writing to a pipe, and
    dropping large outputs keeps the harness out of the peak RSS.
    """

    def __init__(self, keep_bytes):
        self.keep_bytes = keep_bytes  # None keeps every output
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.parts = []

    def writable(self):
        return True

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.nbytes += len(data)
        if self.parts is not None:
            self.parts.append(text)
            if self.keep_bytes is not None and self.nbytes > self.keep_bytes:
                self.parts = None
        return len(text)

    @property
    def text(self):
        """The output, or None if it was too large to keep."""
        return None if self.parts is None else "".join(self.parts)


def issue(argv, keep_bytes=KEEP_BYTES):
    """Run one request in-process; returns its exit code and a Capture of its stdout."""
    out = Capture(keep_bytes)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = zefc.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed request; the batch goes on
            code = "raised " + traceback.format_exc(limit=4)
    return code, out


def run_delay_ns():
    """Time the calling thread spent runnable but waiting for a CPU (Linux schedstat), 0 where unreadable."""
    try:
        with open("/proc/thread-self/schedstat") as stat:
            return int(stat.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0


class PoolDelays:
    """Run delay of the threads that `_parallel.chunked_map` starts and joins within a request.

    Thread.run is wrapped to read each thread's run delay when it starts and
    ends. Threads of one executor run side by side, so the longest delay among
    them is what the host added to the request.
    """

    def __init__(self):
        self.ended = []  # (executor name, run delay ns) of threads that ended
        run = threading.Thread.run

        def timed_run(thread):
            before = run_delay_ns()
            try:
                run(thread)
            finally:
                self.ended.append((thread.name.rsplit("_", 1)[0], run_delay_ns() - before))

        threading.Thread.run = timed_run

    def take_ns(self):
        """Delay the ended threads added, per executor the longest; forgets them."""
        longest = {}
        for executor, delay in self.ended:
            longest[executor] = max(delay, longest.get(executor, 0))
        self.ended.clear()
        return sum(longest.values())


def run_batch(workload, seed, trace, setup_only):
    if setup_only:
        return {"setup_s": SETUP_S}
    import checks

    reqs = workloads.requests(workload, seed)
    validators = checks.load_validators(ROOT / "schemas")
    digests = json.loads((HERE / "digests.json").read_text())
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    pool = PoolDelays()
    speed_probe = probe.SpeedProbe()
    speed_probe.start()
    wall_s = cpu_s = run_delay_s = 0.0
    out_bytes, failures = 0, []
    for number, req in enumerate(reqs, 1):
        if tracer is not None:
            tracer.request = number
        speed_probe.active = True
        wall, cpu, delay = time.perf_counter(), time.process_time(), run_delay_ns()
        code, out = issue(req.argv)
        delay = run_delay_ns() - delay + pool.take_ns()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        speed_probe.active = False
        wall_s, cpu_s, run_delay_s = wall_s + wall, cpu_s + cpu, run_delay_s + delay / 1e9
        out_bytes += out.nbytes
        found = checks.problems(req, code, out.text, validators, digests, out.sha.hexdigest())
        if found:
            failures.append(f"{req.key}: {found[0]}")
    done = resource.getrusage(resource.RUSAGE_SELF)
    speed, probe_cpu_s = speed_probe.stop()
    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "run_delay_s": run_delay_s,
        "speed": speed,
        "wall_ref_s": (wall_s - run_delay_s - probe_cpu_s) * speed,
        "cpu_ref_s": (cpu_s - probe_cpu_s) * speed,
        "peak_rss_mb": done.ru_maxrss * 1024 / 1e6,
        "out_bytes": out_bytes,
        "threads_default": thread_count(None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "attempted": len(reqs),
        "failed": len(failures),
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = traced_metrics(tracer, workload)
    return result


def traced_metrics(tracer, workload):
    """Per-layer metrics of the traced batch; its spans go to .perfbench/spans-WORKLOAD.npz."""
    import spans

    cols = tracer.columns()
    OUT_DIR.mkdir(exist_ok=True)
    numpy.savez(OUT_DIR / f"spans-{workload}.npz", names=numpy.array(tracer.names), **cols)
    memo = sys.modules["zefc.nfc"]._structure_count.cache_info()
    return spans.layer_metrics(cols, tracer.names, tracer.counts, memo)


if __name__ == "__main__":
    workload, seed, trace, setup_only = sys.argv[1:5]
    result = run_batch(workload, int(seed), trace == "1", setup_only == "1")
    print(json.dumps(result))
