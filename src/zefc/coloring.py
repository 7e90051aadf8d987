"""Converse machinery: sumset chromatic numbers, Q_k, chi_m, and the h-function."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitspace import digit_strings, sum_rows, sumset, word_to_string
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
# The sumset bound is checked over every subset up to EXACT_QK_LIMIT and proved
# by induction beyond it, from the split scan of every l <= 2^k_max.
MAX_SUMSET_BOUND_K = MAX_AITCH_L.bit_length() - 1
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
    if not bracket:
        table = q_k_table(k)
    elif k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    elif k > MAX_BRACKET_K:
        raise ZefcError("k_too_large", f"Q_k is limited to k<={MAX_BRACKET_K}", k=k)
    if not 0 <= l <= (1 << k):
        raise ZefcError("bad_ell", "subset size must lie in [0, 2^k]", k=k, l=l)
    if not bracket:
        return table[l]
    return _qk_row(k, l, [] if l == 0 else None)  # l = 0 is exact: its witness is the empty set


def _qk_row(k, l, witness):
    """Q_k's row at l: C_k(l) over the h bound, exact when it names a witness."""
    value = colex_prefix_value(k, l)
    return QkResult(k, l, value, qk_lower_bound(k, l), value, witness is not None, witness)


def q_k_table(k):
    """Exact q_k for every subset size 0..2^k: C_k(l), once the slice certificate holds.

    The witness is the first l words, the first l-subset in itertools.combinations
    order, hence the first minimal one.
    """
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if k > EXACT_QK_LIMIT:
        raise ZefcError(
            "exact_mode_limit",
            f"exact mode limited to k<={EXACT_QK_LIMIT}; use --bracket",
            k=k,
        )
    _certify_prefix(k)
    words = digit_strings(k, 2)
    return {l: _qk_row(k, l, list(words[:l])) for l in range(len(words) + 1)}


def _certify_prefix(k):
    """Prove Q_j = C_j, the word prefix's sumset size, at every j <= k, or raise.

    Slice L by the last digit of its words, as in verify_sumset_lower_bound,
    with la >= lb the slice sizes. Q_(j-1) increases and the union of the two
    slice sumsets is at least either one, so |A^j + L| >= 2*Q_(j-1)(la) +
    Q_(j-1)(lb). From Q_0 = C_0, Q_j >= C_j follows once every split of every
    l <= 2^j has 2*C_(j-1)(la) + C_(j-1)(lb) >= C_j(l); the prefix attains C_j.
    C_(j-1) is padded with 3^j above 2^(j-1), so a split with a slice larger
    than that is never the least.
    """
    for j in range(1, k + 1):
        half = 1 << (j - 1)
        values = np.full(2 * half + 1, 3**j, dtype=np.int64)
        values[: half + 1] = [colex_prefix_value(j - 1, l) for l in range(half + 1)]
        for l, lhs, _ in _aitch_splits(values):
            if lhs.min() < colex_prefix_value(j, l):
                raise ZefcError("qk_prefix_not_minimal", "a split beats the word prefix", k=j, l=l)


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
    words = digit_strings(k, 2)
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


def _aitch_splits(h):
    """Per l = 1..len(h) - 1, in order: (l, lhs, rhs) with lhs[lb] = 2*h[l - lb] + h[lb].

    lb runs over 0..l // 2 and rhs = 2*h[l]. Each l's splits are one vector,
    with the operations of a scalar loop, so for float h lhs and rhs equal its
    values bit for bit.
    """
    for l in range(1, len(h)):
        splits = l // 2 + 1
        yield l, 2 * h[l::-1][:splits] + h[:splits], 2 * h[l]


def _aitch_violations(tau, l_max):
    """Per l <= l_max with a violating split, in scan order: (l, lb, lhs, rhs).

    lb is the increasing array of splits lb <= l // 2 with
    2*h(l - lb) + h(lb) < 2*h(l), lhs their left sides and rhs = 2*h(l).
    """
    for l, lhs, rhs in _aitch_splits(np.array([aitch_tau(tau, l) for l in range(l_max + 1)])):
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
    words = digit_strings(k, 2)
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


def verify_sumset_lower_bound(k_max):
    """Confirm |A^k + L| >= 2^k * h(|L|): exhaustive for k <= 4, by induction beyond.

    Slice L by the last digit of its words: L_b holds the first k - 1 digits of
    the words ending in b, and S_b = A^(k-1) + L_b. The sums ending in 0 are
    S_0, those ending in 2 are S_1, and those ending in 1 are the union U of
    S_0 and S_1, so |A^k + L| = |S_0| + |S_1| + |U|. With la >= lb the slice
    sizes and the bound at k - 1, since h increases,
    |A^k + L| >= 2^(k-1) * (2*h(la) + h(lb)) >= 2^k * h(la + lb)
    whenever 2*h(la) + h(lb) >= 2*h(la + lb). From |A^0 + L| = 1 = h(1), every
    k <= K follows once that holds for every split of every l <= 2^K.

    So one split scan of every l <= 2^k_max serves each k > 4. Entry k lists,
    as [la, lb], the splits of l <= 2^k failing by more than 1e-9, and its
    certificate holds the least 2*h(la) + h(lb) - 2*h(l) over the splits with
    1 <= lb < la and the first split, in scan order, attaining it. The splits
    lb = 0 and la = lb are left out: they are equalities, since 2^tau = 3/2.
    """
    if k_max < 1:
        raise ZefcError("bad_k", "k_max must be at least 1", k_max=k_max)
    if k_max > MAX_SUMSET_BOUND_K:
        message = f"the induction scans l <= 2^k_max; k_max is limited to {MAX_SUMSET_BOUND_K}"
        raise ZefcError("k_too_large", message, k_max=k_max)
    entries = [_exhaustive_entry(k) for k in range(1, min(k_max, EXACT_QK_LIMIT) + 1)]
    failed, margin, split = [], math.inf, None
    for l, lhs, rhs in _aitch_splits(np.array([aitch(l) for l in range((1 << k_max) + 1)])):
        failed += [[l - b, b] for b in np.flatnonzero(lhs < rhs - 1e-9).tolist()]
        gaps = lhs[1 : (l + 1) // 2] - rhs
        if len(gaps) and gaps.min() < margin:
            lb = int(gaps.argmin()) + 1
            margin, split = float(gaps[lb - 1]), [l - lb, lb]
        if l > 1 << EXACT_QK_LIMIT and l & (l - 1) == 0:
            entry = {"k": l.bit_length() - 1, "mode": "inductive", "subsets_checked": 0}
            certificate = {"l_max": l, "margin": margin, "split": split}
            entries.append(entry | {"violations": list(failed), "certificate": certificate})
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
