"""The benchmark's workloads: each is a batch of `zefc` CLI requests.

A workload seed only shuffles the request order and picks the `--seed` of
sampled requests, so every seed asks for the same amount of work.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the exit code it must return."""

    argv: tuple
    exit_code: int = 0
    seeded: bool = False  # output depends on the workload seed, so it has no recorded digest

    @property
    def key(self):
        return " ".join(self.argv)


def _req(text, exit_code=0):
    return Request(tuple(text.split()), exit_code)


def _refusals(*texts):
    """Cheap requests that must be refused with exit 2 and an {"error": ...} object."""
    return [_req(text, exit_code=2) for text in texts]


# Inputs that run for minutes today instead of being refused (ROADMAP item 5).
# A run could not finish on them, so they join the refusals only once zefc
# refuses them up front.
LEFT_OUT_HANGS = (
    "nfc --c1 10 --c2 1",
    "verify sumset-bound --k-max 22 --samples 1",
    "capacity --case 01 --c1 1e30 --c2 1 --k 5",
    "verify aitch --l-max 200000",
)

# All four cases at k = 6..9. Codes are checked for admissibility up to k = 8
# and serialized at every k; k = 9 is the largest table `construct` prints.
_CONSTRUCT = [
    ("11", "1", "1", 9),
    ("01", "2", "1", 8),
    ("00", "1", "1", 8),
    ("10", "1", "1", 7),
    ("11", "3", "2", 7),
    ("01", "3", "2", 7),
    ("10", "2", "1", 7),
    ("00", "2", "1", 6),
    ("01", "3/2", "1", 6),
    ("11", "7/3", "5/4", 6),
    ("10", "3", "2", 6),
]
_WITNESS_CAPS = [("2", "1"), ("3", "2"), ("7/3", "5/4")]
_WITNESS_K = [12, 100, 200]

# c1 + c2 <= 8; (5,1), (6,1) and (5,3) are where the cut search grows
# super-polynomially. (1,2) and (2,3) check that swapped caps are normalized.
_NFC_CAPS = [
    (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1),
    (2, 2), (3, 2), (4, 2),
    (3, 3), (4, 3), (5, 3), (4, 4),
    (1, 2), (2, 3),
]


def _codes(rng):
    reqs = [
        _req(f"construct --case {case} --c1 {c1} --c2 {c2} --k {k}")
        for case, c1, c2, k in _CONSTRUCT
    ]
    reqs += [
        _req(f"capacity --case {case} --c1 {c1} --c2 {c2} --k {k}")
        for case in ("00", "01", "10", "11")
        for c1, c2 in _WITNESS_CAPS
        for k in _WITNESS_K
    ]
    return reqs + _refusals(
        "construct --case 01 --c1 2 --c2 1 --k 11",
        "construct --case 11 --c1 1 --c2 1 --k 0",
        "capacity --case 01 --c1 x --c2 1",
        "capacity --case 11 --c1 1 --c2 0",
    )


def _cutbound(rng):
    reqs = [_req(f"nfc --c1 {c1} --c2 {c2}") for c1, c2 in _NFC_CAPS]
    return reqs + _refusals("nfc --c1 3/2 --c2 1", "nfc --c1 2")


def _converse(rng):
    reqs = [_req(f"qk --k {k}") for k in (1, 2, 3, 4)]
    reqs += [_req("qk --k 4 --threads 1"), _req("qk --k 9 --bracket --l 100")]
    reqs += [_req(f"chim --k {k}") for k in (1, 2, 3)]
    for k in (7, 8):
        reqs += [_req(f"gamma-pair --k {k}"), _req(f"gamma-pair --k {k} --threads 1")]
    reqs += [_req("verify aitch --l-max 1024")]
    reqs += [
        _req("verify sumset-bound --k-max 4"),
        _req("verify sumset-bound --k-max 4 --threads 1"),
    ]
    sampled = f"verify sumset-bound --k-max 8 --samples 1000 --seed {rng.randrange(1 << 30)}"
    reqs.append(Request(tuple(sampled.split()), seeded=True))
    return reqs + _refusals(
        "qk --k 9",
        "qk --k 3 --l 9",
        "gamma-pair --k 9",
        "chim --k 4",
    )


def _reproduce(rng):
    return [_req("reproduce")]


WORKLOADS = {
    "codes": _codes,
    "cutbound": _cutbound,
    "converse": _converse,
    "reproduce": _reproduce,
}


def requests(workload, seed):
    """The workload's requests in the order set by the seed."""
    rng = random.Random(seed)
    reqs = WORKLOADS[workload](rng)
    rng.shuffle(reqs)
    return reqs
