"""CPU speed probe: fixed pure-Python work whose CPU time tracks the host's speed.

On a shared host the same Python code runs up to 1.5x slower for stretches of
about ten seconds. A probe is about a millisecond of the kind of work zefc's
interpreter time goes to, written here and never imported from zefc: building,
sorting and reading a dict of strings, and tuple, set and frozenset traffic.
Scaling a time by mean(PROBE_NS / probe CPU time) gives the time at the
reference speed, which is far steadier from run to run than the raw time.

This module imports nothing heavy, so worker.py can probe before it imports
numpy and zefc.
"""

import signal
import time

PROBE_NS = 750_000  # nominal CPU time of one probe: the reference speed
PROBE_EVERY_S = 0.1
SETUP_PROBES = 12  # probes on each side of the set-up imports


def work():
    words = {f"w{i}": (i, str(i)) for i in range(400)}
    total = len(sorted(words, key=lambda w: words[w][1]))
    edges = [(f"n{i % 7}", f"n{i * 3 % 7}", i) for i in range(60)]
    seen = set()
    for cut in range(40):
        removed = frozenset(e[2] for e in edges if e[2] * cut % 5 == 0)
        reach = {e[1] for e in edges if e[2] not in removed and e[0] in ("n0", "n1", "n2")}
        seen.add((removed, frozenset(reach)))
    return total + len(seen)


def timed_work():
    """CPU ns of one probe; a first pass warms the caches, so the timed pass does not pay for zefc's data."""
    work()
    started = time.thread_time_ns()
    work()
    return time.thread_time_ns() - started


def sample(probes=SETUP_PROBES):
    """Mean relative speed over `probes` probes, and the CPU seconds they took."""
    started = time.thread_time_ns()
    speed = sum(PROBE_NS / timed_work() for _ in range(probes)) / probes
    return speed, (time.thread_time_ns() - started) / 1e9


class SpeedProbe:
    """Samples the main thread's speed every 0.1 s, from a SIGALRM handler.

    Only probes taken while `active` is set count, so the time between
    requests, where the worker checks outputs, leaves the figures alone.
    """

    def __init__(self):
        self.samples = []
        self.cpu_s = 0.0
        self.active = False

    def probe(self, *_):
        if self.active:
            speed, cpu_s = sample(1)
            self.samples.append(speed)
            self.cpu_s += cpu_s

    def start(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        """Returns the mean relative speed and the CPU seconds the counted probes took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        cpu_s = self.cpu_s
        self.active = True
        self.probe()  # a batch shorter than one period still gets a sample
        return sum(self.samples) / len(self.samples), cpu_s
