"""Converse machinery: sumset chromatic numbers, Q_k, chi_m, and the h-function."""

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitspace import sum_rows, sumset, word_to_string
from .errors import ZefcError

TAU = math.log2(3) - 1
EXACT_QK_LIMIT = 4
# chi_m_table walks every set partition of the 2^k words: Bell(8) = 4140 of them
# in about 5 ms at k = 3, but Bell(16), about 1.0e10, at k = 4.
EXACT_CHIM_LIMIT = 3
MIXED_PAIR_LIMIT = 8
# The superadditivity check visits about l_max^2 / 4 splits as l_max vectors; 4096
# takes about 0.05 s, and 0.08 s when every split fails (tau = 1).
MAX_AITCH_L = 4096
# The sumset bound checks all 2^(2^k) subsets up to this k and samples beyond it.
# Its sum masks hold 2^k rows of 3^k bits: 7.5 MB built in about 0.04 s at k = 10,
# 45 MB at k = 11. k_max = 10 at the default 200 samples takes about 0.3 s.
EXACT_SUMSET_BOUND_K = 4
MAX_SUMSET_BOUND_K = 10
# Sampled subsets per k beyond EXACT_SUMSET_BOUND_K. Each ORs up to 2^k masks, about
# 1 ms on average at k = 10: k_max = 10 with 2000 samples takes about 2.5 s, and
# 10^8 samples would run for days.
MAX_SUMSET_SAMPLES = 2000
# 2^k as a float overflows from k = 1024 on; below it, qk_lower_bound refuses the l
# whose float bound 2^k * h(l) does.
MAX_BRACKET_K = 1023
# l^tau and twice it stay finite for every l <= MAX_AITCH_L = 2^12 while |tau| <= 64.
MAX_ABS_TAU = 64


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
class AitchReport:
    """Superadditivity check outcome for the h-function."""

    l_max: int
    tau: float
    checked: int
    violations: int
    violation_examples: tuple  # the first ten, in scan order
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


def chi(k, m, l):
    """Minimum colors for the conflict graph on m x l: the number of distinct sums."""
    return len(sumset(k, m, l))


def _sum_ints(k):
    """Per-y bitmask over the 3^k sums of the sumset A^k + y, as a Python int."""
    # map frees each row before the next is packed, where a comprehension would
    # hold two; at k = 10 that kept the peak RSS 0.8 MB above a plain int loop's.
    return list(map(functools.partial(int.from_bytes, byteorder="little"), sum_rows(k)))


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
    bound = (1 << k) * aitch(l)
    if math.isinf(bound):
        raise ZefcError("k_too_large", "the bound 2^k * h(l) exceeds the float range", k=k, l=l)
    return math.ceil(bound - 1e-9)


def colex_prefix_value(k, l):
    """Sumset size |A^k + {0, ..., l-1}|, by the prefix recursion run as a loop.

    With half = 2^(k-1), the size is 2 * |A^(k-1) + {0..l-1}| when l <= half, and
    2 * 3^(k-1) + |A^(k-1) + {0..l-half-1}| otherwise; at k = 0 it is 1.
    """
    if l == 0:
        return 0
    value, scale = 0, 1
    for j in range(k - 1, -1, -1):
        half = 1 << j
        if l <= half:
            scale *= 2
        else:
            value += scale * 2 * 3**j
            l -= half
    return value + scale


def q_k(k, l, bracket=False):
    """Minimum |A^k + L| over subsets of size l: exact for k <= 4, else bracketed."""
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if k > MAX_BRACKET_K:
        raise ZefcError("k_too_large", f"Q_k is limited to k<={MAX_BRACKET_K}", k=k)
    if not 0 <= l <= (1 << k):
        raise ZefcError("bad_ell", "subset size must lie in [0, 2^k]", k=k, l=l)
    if l == 0:
        return QkResult(k=k, l=l, value=0, lower=0, upper=0, exact=True, witness=[])
    if not bracket:
        return q_k_table(k)[l]
    upper = colex_prefix_value(k, l)
    return QkResult(
        k=k,
        l=l,
        value=upper,
        lower=qk_lower_bound(k, l),
        upper=upper,
        exact=False,
        witness=None,
    )


def _qk_exact(k):
    """Per l = 0..2^k, the least |A^k + L| over |L| = l and the first mask attaining it.

    First means first in itertools.combinations order of the sorted index
    tuples: A precedes B exactly when the lowest bit of A xor B is in A, so the
    first minimal mask is the largest one after reversing its 2^k bits.
    """
    size = 1 << k
    counts, ells = _union_counts(k)
    rev = np.zeros(1 << size, dtype=np.int64)
    for b in range(size):
        half = 1 << b
        rev[half : 2 * half] = rev[:half] + (1 << (size - 1 - b))
    order = np.lexsort((-rev, counts, ells))
    firsts = order[np.searchsorted(ells[order], np.arange(size + 1))]
    return counts[firsts].tolist(), firsts.tolist()


def q_k_table(k):
    """Exact q_k for every subset size 0..2^k, from one union table."""
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if k > EXACT_QK_LIMIT:
        raise ZefcError(
            "exact_mode_limit",
            f"exact mode limited to k<={EXACT_QK_LIMIT}; use --bracket",
            k=k,
        )
    words = [word_to_string(y, k, 2) for y in range(1 << k)]
    values, masks = _qk_exact(k)
    return {
        l: QkResult(
            k=k,
            l=l,
            value=value,
            lower=qk_lower_bound(k, l),
            upper=colex_prefix_value(k, l),
            exact=True,
            witness=[word for y, word in enumerate(words) if mask >> y & 1],
        )
        for l, (value, mask) in enumerate(zip(values, masks))
    }


def chi_m_table(k):
    """chi_m for every m at a fixed k, keyed by m, from one walk over the set partitions.

    The walk visits each partition of the 2^k words once, in growth-string order,
    with its blocks as word bitmasks, and keeps per block count the first
    partition whose largest block sumset is least.
    """
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if k > EXACT_CHIM_LIMIT:
        raise ZefcError(
            "k_too_large",
            f"partition enumeration is limited to k<={EXACT_CHIM_LIMIT}",
            k=k,
        )
    size = 1 << k
    counts = _union_counts(k)[0].tolist()
    best, pick = {}, {}

    def grow(y, blocks):
        if y < size:
            for i in range(len(blocks)):
                blocks[i] |= 1 << y
                grow(y + 1, blocks)
                blocks[i] ^= 1 << y
            grow(y + 1, blocks + [1 << y])
            return
        m, worst = len(blocks), max(counts[mask] for mask in blocks)
        if worst < best.get(m, math.inf):
            best[m], pick[m] = worst, tuple(blocks)

    grow(0, [])
    words = [word_to_string(y, k, 2) for y in range(size)]
    table = {}
    for m in sorted(best):
        witness = tuple(tuple(w for y, w in enumerate(words) if mask >> y & 1) for mask in pick[m])
        table[m] = ChiMResult(k=k, m=m, value=best[m], witness=witness)
    return table


def chi_m(k, m):
    """Least achievable max-block color count over partitions into exactly m blocks."""
    table = chi_m_table(k)
    if m not in table:
        raise ZefcError("bad_m", "block count must lie in [1, 2^k]", k=k, m=m)
    return table[m]


def _aitch_violations(tau, l_max):
    """Per l <= l_max with a violating split, in scan order: (l, lb, lhs, rhs).

    lb is the increasing array of splits lb <= l // 2 with
    2*h(l - lb) + h(lb) < 2*h(l), lhs their left sides and rhs = 2*h(l). h is
    evaluated once per l; each l's splits are then tested as one vector, with
    the float operations of a scalar loop, so lhs and rhs equal its values bit
    for bit.
    """
    h = np.array([aitch_tau(tau, l) for l in range(l_max + 1)])
    for l in range(1, l_max + 1):
        splits = l // 2 + 1
        rhs = 2 * h[l]
        lhs = 2 * h[l::-1][:splits] + h[:splits]  # lb = 0, 1, ..., l // 2
        lb = np.flatnonzero(lhs < rhs - 1e-9)
        if len(lb):
            yield l, lb, lhs[lb], float(rhs)


def verify_aitch_superadditivity(l_max, tau=None):
    """Check 2*h(l_a) + h(l_b) >= 2*h(l) over every split of every l <= l_max."""
    if l_max < 1:
        raise ZefcError("bad_ell", "l_max must be at least 1", l_max=l_max)
    if l_max > MAX_AITCH_L:
        raise ZefcError(
            "l_too_large",
            f"the check is O(l_max^2); l_max is limited to {MAX_AITCH_L}",
            l_max=l_max,
        )
    if tau is not None and not abs(tau) <= MAX_ABS_TAU:
        raise ZefcError(
            "bad_tau", f"tau must be a number in [-{MAX_ABS_TAU}, {MAX_ABS_TAU}]", tau=str(tau)
        )
    used_tau = TAU if tau is None else tau
    examples, violations = [], 0
    for l, lb, lhs, rhs in _aitch_violations(used_tau, l_max):
        violations += len(lb)
        take = 10 - len(examples)
        examples += [
            {"l": l, "split": [l - b, b], "lhs": x, "rhs": rhs}
            for b, x in zip(lb[:take].tolist(), lhs[:take].tolist())
        ]
    maximality = None
    if tau is None:
        bumped = TAU + 0.01
        for l, lb, lhs, rhs in _aitch_violations(bumped, l_max):
            b = int(lb[0])
            maximality = {
                "tau": bumped, "l": l, "split": [l - b, b], "lhs": float(lhs[0]), "rhs": rhs
            }
            break
    return AitchReport(
        l_max=l_max,
        tau=used_tau,
        checked=sum(l // 2 + 1 for l in range(1, l_max + 1)),
        violations=violations,
        violation_examples=tuple(examples),
        tau_maximality=maximality,
    )


_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _union_counts(k):
    """Sizes |A^k + L| and |L| for every subset mask L of the 2^k binary words.

    Column y is row y of sum_rows(k), the bitmask of A^k + y, as 64-bit words;
    the union table doubles, U[:, 2^b + m] = U[:, m] | column b, so a mask's
    column is the union over its set bits.
    """
    size = 1 << k
    columns = np.array(list(sum_rows(k))).view(np.uint64).T
    union = np.zeros((len(columns), 1 << size), dtype=np.uint64)
    ells = np.zeros(1 << size, dtype=np.uint8)
    for b in range(size):
        half = 1 << b
        np.bitwise_or(union[:, :half], columns[:, b : b + 1], out=union[:, half : 2 * half])
        ells[half : 2 * half] = ells[:half] + 1
    counts = np.zeros(1 << size, dtype=np.int16)
    for word in union:
        counts += _POPCOUNT8[word.view(np.uint8)].reshape(-1, 8).sum(axis=1, dtype=np.int16)
    return counts, ells


def _exhaustive_entry(k):
    """Every nonempty subset of A^k checked against the 2^k*h(l) bound, in mask order."""
    size = 1 << k
    counts, ells = _union_counts(k)
    bounds = np.array([qk_lower_bound(k, l) for l in range(size + 1)], dtype=np.int16)[ells]
    power = (ells & (ells - 1)) == 0
    power[0] = False  # the empty mask, which is not checked
    violations = [(int(m), int(ells[m]), int(counts[m])) for m in np.nonzero(counts < bounds)[0]]
    words = [word_to_string(y, k, 2) for y in range(size)]
    subsets = {}
    for mask in map(int, np.nonzero(power & (counts == bounds))[0]):
        subsets.setdefault(int(ells[mask]), []).append(
            [words[y] for y in range(size) if (mask >> y) & 1]
        )
    return {
        "k": k,
        "mode": "exhaustive",
        "subsets_checked": (1 << size) - 1,
        "violations": violations,
        "equality_counts": {l: len(subsets[l]) for l in sorted(subsets)},
        "equality_subsets": {l: subsets[l] for l in sorted(subsets)},
    }


def verify_sumset_lower_bound(k_max, samples=200, seed=0):
    """Confirm |A^k + L| >= 2^k * h(|L|): exhaustive for k <= 4, sampled beyond."""
    if k_max < 1:
        raise ZefcError("bad_k", "k_max must be at least 1", k_max=k_max)
    if k_max > MAX_SUMSET_BOUND_K:
        raise ZefcError(
            "k_too_large",
            f"the sum masks grow as 6^k bits; k_max is limited to {MAX_SUMSET_BOUND_K}",
            k_max=k_max,
        )
    if not 1 <= samples <= MAX_SUMSET_SAMPLES:
        raise ZefcError(
            "bad_samples",
            f"samples must lie in [1, {MAX_SUMSET_SAMPLES}]",
            samples=samples,
        )
    entries = []
    for k in range(1, k_max + 1):
        if k <= EXACT_SUMSET_BOUND_K:
            entries.append(_exhaustive_entry(k))
            continue
        masks, size = _sum_ints(k), 1 << k
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


_OVERLAP = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=np.int16)
# Rows per block of the pair scan: 3^4 rows by at most 3^8 columns of int16.
_PAIR_BLOCK_DIGITS = 4


def _overlap_matrix(k):
    """M_k[y1, y2] = prod_i _OVERLAP[y1_i, y2_i] = |(A^k + y1) & (A^k + y2)| over packed words.

    With y = lo + 3^j * hi, M_k = kron(M_(k-j), M_j); at most 2^8 fits in int16.
    """
    out = np.ones((1, 1), dtype=np.int16)
    for _ in range(k):
        out = np.kron(_OVERLAP, out)
    return out


def _best_in_block(low, high_row, not_above):
    """First maximum, in row-major order, of kron(high_row, low) where y2 > y1.

    The block's leading square holds the pairs of its own rows, so not_above
    masks those with y2 <= y1. Returns (value, row, column within the block).
    """
    rows = len(low)
    block = (low[:, None, :] * high_row[:, None]).reshape(rows, -1)
    block[:, :rows][not_above] = -1
    row, col = divmod(int(block.argmax()), block.shape[1])
    return int(block[row, col]), row, col


def mixed_min_pair_sumset(k):
    """Minimum |A^k + {y1, y2}| over distinct ternary words, via overlap products.

    Every pair y1 < y2 is scored. Rows are taken in blocks of 3^j rows that share
    their high word hi1; the block is kron(M_(k-j)[hi1, hi1:], M_j), the columns
    from 3^j * hi1 on. Blocks are compared in order and replace the best only
    when strictly larger, so the witness is the first maximum in row-major
    order, as a row-by-row scan finds.
    """
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if k > MIXED_PAIR_LIMIT:
        raise ZefcError("k_too_large", f"pair enumeration is limited to k<={MIXED_PAIR_LIMIT}", k=k)
    j = min(k, _PAIR_BLOCK_DIGITS)
    rows = 3**j
    low, high = _overlap_matrix(j), _overlap_matrix(k - j)
    not_above = np.tril(np.ones((rows, rows), dtype=bool))
    best, pair = -1, None
    for hi in range(len(high)):
        top, row, col = _best_in_block(low, high[hi, hi:], not_above)
        if top > best:
            best, pair = top, (hi * rows + row, hi * rows + col)
    value = (1 << (k + 1)) - best
    witness = (word_to_string(pair[0], k, 3), word_to_string(pair[1], k, 3))
    return MixedPairResult(k=k, value=value, witness=witness)
