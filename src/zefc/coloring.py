"""Converse machinery: sumset chromatic numbers, Q_k, chi_m, and the h-function."""

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitspace import VectorSet, binary_to_base3_table, sumset, word_to_string
from .errors import ZefcError
from ._parallel import chunked_map, split_range

TAU = math.log2(3) - 1
EXACT_QK_LIMIT = 4
EXACT_CHIM_LIMIT = 3
MIXED_PAIR_LIMIT = 8


@dataclass(frozen=True)
class ConflictGraphSpec:
    """A conflict graph described by its two defining sets, never materialized."""

    m: VectorSet
    l: VectorSet


@dataclass(frozen=True)
class QkResult:
    """Minimum sumset size over subsets of a fixed cardinality, exact or bracketed."""

    k: int
    l: int
    value: int
    lower: int
    upper: int
    exact: bool
    witness: object


@dataclass(frozen=True)
class ChiMResult:
    """Best max-block chromatic count over partitions into exactly m blocks."""

    k: int
    m: int
    value: int
    witness: tuple


@dataclass(frozen=True)
class ChiTable:
    """chi_m for every m at a fixed k, with witness partitions."""

    k: int
    values: dict
    witnesses: dict


@dataclass(frozen=True)
class AitchReport:
    """Superadditivity check outcome for the h-function."""

    l_max: int
    tau: float
    checked: int
    violations: tuple
    tau_maximality: Optional[dict]


@dataclass(frozen=True)
class SumsetBoundReport:
    """Per-k confirmation that sumset sizes respect the 2^k*h(l) lower bound."""

    k_max: int
    entries: tuple


@dataclass(frozen=True)
class MixedPairResult:
    """Minimum of |A^k + {y1, y2}| over distinct ternary pairs."""

    k: int
    value: int
    witness: tuple


def chi(spec):
    """Minimum colors for the conflict graph: the number of distinct sums."""
    return len(sumset(spec.m, spec.l))


def _sum_masks(k):
    """Per-y bitmask over 3^k sum values of the full binary sumset A^k + y."""
    table = binary_to_base3_table(k)
    size = 1 << k
    return [sum(1 << (table[x] + table[y]) for x in range(size)) >> 0 for y in range(size)], size


def aitch(l):
    """The bound shape l^(log2(3) - 1), with value 0 at l = 0."""
    return aitch_tau(TAU, l)


def aitch_tau(tau, l):
    """Parameterized variant l^tau used for the tightness counterexample."""
    if l < 0:
        raise ZefcError("bad_ell", "subset size must be nonnegative", l=l)
    if l == 0:
        return 0.0
    return math.pow(l, tau)


def qk_lower_bound(k, l):
    """ceil(2^k * h(l)), computed exactly when l is a power of two."""
    if l == 0:
        return 0
    if l & (l - 1) == 0:
        j = l.bit_length() - 1
        return 3 ** j * (1 << (k - j))
    return math.ceil((1 << k) * aitch(l) - 1e-9)


def colex_prefix_value(k, l):
    """Sumset size |A^k + {0, ..., l-1}|, by the prefix recursion."""
    if l == 0:
        return 0
    if k == 0:
        return 1
    half = 1 << (k - 1)
    if l <= half:
        return 2 * colex_prefix_value(k - 1, l)
    return 2 * 3 ** (k - 1) + colex_prefix_value(k - 1, l - half)


def q_k(k, l, bracket=False, threads=None):
    """Minimum |A^k + L| over subsets of size l: exact for k <= 4, else bracketed."""
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if not 0 <= l <= (1 << k):
        raise ZefcError("bad_ell", "subset size must lie in [0, 2^k]", k=k, l=l)
    if l == 0:
        return QkResult(k=k, l=l, value=0, lower=0, upper=0, exact=True, witness=[])
    if k > EXACT_QK_LIMIT and not bracket:
        raise ZefcError(
            "exact_mode_limit",
            f"exact mode limited to k<={EXACT_QK_LIMIT}; use --bracket",
            k=k,
        )
    lower = qk_lower_bound(k, l)
    upper = colex_prefix_value(k, l)
    if bracket:
        return QkResult(
            k=k,
            l=l,
            value=upper,
            lower=lower,
            upper=upper,
            exact=False,
            witness={"prefix_size": l},
        )
    masks, size = _sum_masks(k)
    combos = list(itertools.combinations(range(size), l))

    def scan(span):
        start, stop = span
        best, pick = None, None
        for idx in range(start, stop):
            subset = combos[idx]
            acc = 0
            for y in subset:
                acc |= masks[y]
            count = acc.bit_count()
            if best is None or count < best:
                best, pick = count, subset
        return best, pick

    best, pick = None, None
    for got, subset in chunked_map(scan, split_range(len(combos), 8), threads):
        if got is not None and (best is None or got < best):
            best, pick = got, subset
    witness = [word_to_string(y, k, 2) for y in pick]
    return QkResult(k=k, l=l, value=best, lower=lower, upper=upper, exact=True, witness=witness)


def q_k_table(k, bracket=False, threads=None):
    """q_k for every subset size 0..2^k."""
    return {l: q_k(k, l, bracket=bracket, threads=threads) for l in range((1 << k) + 1)}


def _partitions_into(items, m):
    """All set partitions of items into exactly m nonempty blocks, in growth-string order."""
    n = len(items)

    def grow(idx, blocks):
        if idx == n:
            if len(blocks) == m:
                yield [tuple(b) for b in blocks]
            return
        if len(blocks) + (n - idx) < m:
            return
        for b in blocks:
            b.append(items[idx])
            yield from grow(idx + 1, blocks)
            b.pop()
        if len(blocks) < m:
            blocks.append([items[idx]])
            yield from grow(idx + 1, blocks)
            blocks.pop()

    yield from grow(0, [])


def chi_m(k, m):
    """Least achievable max-block color count over partitions into exactly m blocks."""
    if k > EXACT_CHIM_LIMIT:
        raise ZefcError(
            "k_too_large",
            f"partition enumeration is limited to k<={EXACT_CHIM_LIMIT}",
            k=k,
        )
    size = 1 << k
    if not 1 <= m <= size:
        raise ZefcError("bad_m", "block count must lie in [1, 2^k]", k=k, m=m)
    masks, _ = _sum_masks(k)
    block_size = {}

    def chi_of(block):
        if block not in block_size:
            acc = 0
            for y in block:
                acc |= masks[y]
            block_size[block] = acc.bit_count()
        return block_size[block]

    best, pick = None, None
    for partition in _partitions_into(list(range(size)), m):
        worst = max(chi_of(block) for block in partition)
        if best is None or worst < best:
            best, pick = worst, partition
    witness = tuple(tuple(word_to_string(y, k, 2) for y in block) for block in pick)
    return ChiMResult(k=k, m=m, value=best, witness=witness)


def chi_m_table(k):
    """chi_m for every m at a fixed k."""
    results = {m: chi_m(k, m) for m in range(1, (1 << k) + 1)}
    return ChiTable(
        k=k,
        values={m: r.value for m, r in results.items()},
        witnesses={m: r.witness for m, r in results.items()},
    )


def verify_aitch_superadditivity(l_max, tau=None):
    """Check 2*h(l_a) + h(l_b) >= 2*h(l) over every split of every l <= l_max."""
    if l_max < 1:
        raise ZefcError("bad_ell", "l_max must be at least 1", l_max=l_max)
    used_tau = TAU if tau is None else tau
    violations = []
    checked = 0
    for l in range(1, l_max + 1):
        rhs = 2 * aitch_tau(used_tau, l)
        for lb in range(0, l // 2 + 1):
            la = l - lb
            checked += 1
            lhs = 2 * aitch_tau(used_tau, la) + aitch_tau(used_tau, lb)
            if lhs < rhs - 1e-9:
                violations.append({"l": l, "split": [la, lb], "lhs": lhs, "rhs": rhs})
    maximality = None
    if tau is None:
        bumped = TAU + 0.01
        for l in range(1, l_max + 1):
            rhs = 2 * aitch_tau(bumped, l)
            for lb in range(0, l // 2 + 1):
                la = l - lb
                lhs = 2 * aitch_tau(bumped, la) + aitch_tau(bumped, lb)
                if lhs < rhs - 1e-9:
                    maximality = {"tau": bumped, "l": l, "split": [la, lb], "lhs": lhs, "rhs": rhs}
                    break
            if maximality:
                break
    return AitchReport(
        l_max=l_max,
        tau=used_tau,
        checked=checked,
        violations=tuple(violations),
        tau_maximality=maximality,
    )


def verify_sumset_lower_bound(k_max, samples=200, seed=0, threads=None):
    """Confirm |A^k + L| >= 2^k * h(|L|): exhaustive for k <= 4, sampled beyond."""
    if k_max < 1:
        raise ZefcError("bad_k", "k_max must be at least 1", k_max=k_max)
    entries = []
    for k in range(1, k_max + 1):
        masks, size = _sum_masks(k)
        if k <= 4:
            bounds = [qk_lower_bound(k, l) for l in range(size + 1)]

            def scan(span, masks=masks, bounds=bounds, size=size):
                violations, equalities = [], []
                for mask in range(span[0], span[1]):
                    acc, l = 0, 0
                    rest = mask
                    while rest:
                        y = (rest & -rest).bit_length() - 1
                        acc |= masks[y]
                        rest &= rest - 1
                        l += 1
                    got = acc.bit_count()
                    if got < bounds[l]:
                        violations.append((mask, l, got))
                    elif l & (l - 1) == 0 and got == bounds[l]:
                        equalities.append((mask, l))
                return violations, equalities

            violations, counts, subsets = [], {}, {}
            spans = split_range((1 << size) - 1, 8)
            for vio, eqs in chunked_map(
                lambda span: scan((span[0] + 1, span[1] + 1)), spans, threads
            ):
                violations.extend(vio)
                for mask, l in eqs:
                    counts[l] = counts.get(l, 0) + 1
                    subsets.setdefault(l, []).append(
                        [word_to_string(y, k, 2) for y in range(size) if (mask >> y) & 1]
                    )
            entries.append(
                {
                    "k": k,
                    "mode": "exhaustive",
                    "subsets_checked": (1 << size) - 1,
                    "violations": violations,
                    "equality_counts": dict(sorted(counts.items())),
                    "equality_subsets": {l: subsets[l] for l in sorted(subsets)},
                }
            )
        else:
            rng = random.Random(seed + k)
            violations = []
            for _ in range(samples):
                l = rng.randint(1, size)
                subset = rng.sample(range(size), l)
                acc = 0
                for y in subset:
                    acc |= masks[y]
                got = acc.bit_count()
                if got < qk_lower_bound(k, l):
                    violations.append((sorted(subset), l, got))
            entries.append(
                {
                    "k": k,
                    "mode": "sampled",
                    "subsets_checked": samples,
                    "violations": violations,
                }
            )
    return SumsetBoundReport(k_max=k_max, entries=tuple(entries))


_OVERLAP = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=np.int64)


def mixed_min_pair_sumset(k, threads=None):
    """Minimum |A^k + {y1, y2}| over distinct ternary words, via overlap products."""
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if k > MIXED_PAIR_LIMIT:
        raise ZefcError("k_too_large", f"pair enumeration is limited to k<={MIXED_PAIR_LIMIT}", k=k)
    total = 3 ** k
    digits = np.zeros((total, k), dtype=np.int8)
    v = np.arange(total)
    for i in range(k):
        digits[:, i] = v % 3
        v //= 3

    def scan(span):
        best, pair = -1, None
        for y1 in range(span[0], span[1]):
            others = digits[y1 + 1 :]
            if not len(others):
                continue
            products = _OVERLAP[digits[y1][None, :], others].prod(axis=1)
            top = int(products.max())
            if top > best:
                best = top
                pair = (y1, y1 + 1 + int(products.argmax()))
        return best, pair

    best, pair = -1, None
    for got, cand in chunked_map(scan, split_range(total - 1, 8), threads):
        if got > best:
            best, pair = got, cand
    value = (1 << (k + 1)) - best
    witness = (word_to_string(pair[0], k, 3), word_to_string(pair[1], k, 3))
    return MixedPairResult(k=k, value=value, witness=witness)
