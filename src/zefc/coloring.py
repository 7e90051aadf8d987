"""Converse machinery: sumset chromatic numbers, Q_k, chi_m, and the h-function."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitspace import digit_strings, sum_rows, sumset
from .errors import ZefcError
from .exact import LOG2_3, colex_prefix_value

TAU = LOG2_3 - 1
# Exact Q_k is a closed form at every k; exact mode stops here only because the
# recorded benchmark refusal `qk --k 9` pins it until the refusals are re-recorded.
EXACT_QK_LIMIT = 4
# verify sumset-bound checks all 2^(2^k) subsets up to this k (65535 at k = 4, about
# 4.3e9 at k = 5) and proves the bound by induction beyond it.
EXHAUSTIVE_SUMSET_K = 4
# The chi_m search finds every m at k = 5 in under a second; exact mode stops here only
# because the recorded benchmark refusal `chim --k 4` pins it until the refusals are
# re-recorded.
EXACT_CHIM_LIMIT = 3
# The mixed-pair minimum is a closed form at every k; the recorded benchmark refusal
# `gamma-pair --k 9` pins this limit until the refusals are re-recorded.
MIXED_PAIR_LIMIT = 8
# The superadditivity check visits about l_max^2 / 4 splits as l_max vectors; 4096
# takes about 0.05 s, and 0.08 s when every split fails (tau = 1).
MAX_AITCH_L = 4096
# The induction past EXHAUSTIVE_SUMSET_K scans every split of every l <= 2^k_max.
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


def q_k(k, l, bracket=False):
    """Minimum |A^k + L| over subsets of size l: exact for k <= 4, else bracketed."""
    _check_qk_k(k, bracket)
    if not 0 <= l <= (1 << k):
        raise ZefcError("bad_ell", "subset size must lie in [0, 2^k]", k=k, l=l)
    return _qk_row(k, l, bracket)


def _check_qk_k(k, bracket):
    """Refuse a k below 1, then one above the exact or the bracketed limit."""
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if not bracket and k > EXACT_QK_LIMIT:
        raise ZefcError(
            "exact_mode_limit",
            f"exact mode limited to k<={EXACT_QK_LIMIT}; use --bracket",
            k=k,
        )
    if k > MAX_BRACKET_K:
        raise ZefcError("k_too_large", f"Q_k is limited to k<={MAX_BRACKET_K}", k=k)


def _qk_row(k, l, bracket):
    """Q_k's row at l: C_k(l) over the h bound; an exact row names the first l words."""
    # A bracketed row is exact only at l = 0, whose witness is the empty set.
    witness = [] if l == 0 else None if bracket else list(digit_strings(k, 2)[:l])
    value = colex_prefix_value(k, l)
    return QkResult(k, l, value, qk_lower_bound(k, l), value, witness is not None, witness)


def q_k_table(k):
    """Exact Q_k(l) for every l = 0..2^k: C_k(l), the sumset size of the first l words.

    The first l words, the first l-subset in itertools.combinations order, reach
    C_k(l), so Q_k <= C_k; they are the witness, hence the first minimal subset.
    Q_k >= C_k by induction on k, from Q_0 = C_0:

    - The slice bound. Slice L by the last digit of its words, as in
      verify_sumset_lower_bound. With S_b = A^(k-1) + L_b, where L_b holds the
      first k - 1 digits of the words ending in b, the sums ending in 0, 1 and 2
      are S_0, S_0 | S_1 and S_1. The union is at least the larger slice's
      sumset, so with la >= lb the slice sizes,
      |A^k + L| >= 2*Q_(k-1)(la) + Q_(k-1)(lb) = 2*C_(k-1)(la) + C_(k-1)(lb).
    - The k-free form. C_k(l) = 2*C_(k-1)(l) for l <= 2^(k-1), so
      F(l) = C_k(l)/2^k is the same for every k with 2^k >= l. Slicing the
      prefix, the packed words 0..l-1, by its first (low) digit gives two nested
      prefixes, of ceil(l/2) and floor(l/2) words, so
      F(l) = F(ceil(l/2)) + F(floor(l/2))/2: F(0) = 0, F(1) = 1,
      F(2l) = (3/2)*F(l) and F(2l+1) = F(l)/2 + F(l+1). F never decreases, since
      F(2l+1) - F(2l) = F(l+1) - F(l) and F(2l+2) - F(2l+1) = (F(l+1) - F(l))/2.
      The slice bound minus C_k(la + lb) is 2^(k-1) * D(la, lb), with
      D(a, b) = 2F(a) + F(b) - 2F(a+b).
    - D(a, b) >= 0 for a >= b >= 0, by induction on a + b. D(a, 0) = 0, and for
      b >= 1 each parity case is an identity of the recursion whose D terms
      have first argument at least the second and a smaller sum:
      D(2x, 2y) = (3/2)*D(x, y); D(2x+1, 2y) = D(x+1, y) + D(x, y)/2;
      D(2x, 2y+1) = D(x, y+1) + D(x, y)/2, where x >= y + 1; D(2x+1, 2x+1) = 0;
      and for x > y, D(2x+1, 2y+1) = (D(x+1, y) + D(x, y+1) + D(x+1, y+1))/2
      + F(x+y+2) - F(x+y+1), whose last difference is >= 0 as F never decreases.

    Related work: Bollobas and Leader, "Sums in the grid" (Discrete Math. 162,
    1996), study sumset sizes in the grid {0, ..., n-1}^k.
    """
    _check_qk_k(k, bracket=False)
    return {l: _qk_row(k, l, bracket=False) for l in range((1 << k) + 1)}


def chi_m_table(k):
    """chi_m for every m at a fixed k, keyed by m."""
    _check_chim_k(k)
    return {m: _chi_m_search(k, m) for m in range(1, (1 << k) + 1)}


def chi_m(k, m):
    """Least achievable max-block color count over partitions into exactly m blocks."""
    _check_chim_k(k)
    if not 1 <= m <= 1 << k:
        raise ZefcError("bad_m", "block count must lie in [1, 2^k]", k=k, m=m)
    return _chi_m_search(k, m)


def _check_chim_k(k):
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if k > EXACT_CHIM_LIMIT:
        raise ZefcError(
            "k_too_large",
            f"partition enumeration is limited to k<={EXACT_CHIM_LIMIT}",
            k=k,
        )


def _chi_m_search(k, m):
    """chi_m(k, m) and the first partition reaching it in growth-string order, at any k.

    The largest of m blocks holds at least ceil(2^k/m) words, and Q_k = C_k never
    decreases, so chi_m >= t = C_k(ceil(2^k/m)). A depth-first search places
    the words in order, each in an existing block, first to last, then in a new
    one, which visits the partitions in growth-string order. It keeps a block
    only while its sumset, the OR of its words' sum_rows masks, has at most t
    sums, opens a block only while fewer than m exist, and drops a branch once
    too few words are left to open the rest. If no partition passes, t goes up
    by one, so the first hit is the first minimum in growth order.
    """
    size = 1 << k
    rows = [int.from_bytes(row, "little") for row in sum_rows(k)]
    sums, blocks = [], []

    def place(y, bound):
        if y == size:
            return len(blocks) == m
        if len(blocks) + size - y < m:
            return False
        row, bit = rows[y], 1 << y
        for i, before in enumerate(sums):
            union = before | row
            if union.bit_count() <= bound:
                sums[i] = union
                blocks[i] |= bit
                if place(y + 1, bound):
                    return True
                sums[i] = before
                blocks[i] ^= bit
        if len(blocks) < m:
            sums.append(row)
            blocks.append(bit)
            if place(y + 1, bound):
                return True
            sums.pop()
            blocks.pop()
        return False

    bound = colex_prefix_value(k, -(-size // m))
    while not place(0, bound):
        bound += 1
    words = digit_strings(k, 2)
    witness = tuple(tuple(w for y, w in enumerate(words) if mask >> y & 1) for mask in blocks)
    return ChiMResult(k=k, m=m, value=bound, witness=witness)


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
    entries = [_exhaustive_entry(k) for k in range(1, min(k_max, EXHAUSTIVE_SUMSET_K) + 1)]
    failed, margin, split = [], math.inf, None
    for l, lhs, rhs in _aitch_splits(np.array([aitch(l) for l in range((1 << k_max) + 1)])):
        failed += [[l - b, b] for b in np.flatnonzero(lhs < rhs - 1e-9).tolist()]
        gaps = lhs[1 : (l + 1) // 2] - rhs
        if len(gaps) and gaps.min() < margin:
            lb = int(gaps.argmin()) + 1
            margin, split = float(gaps[lb - 1]), [l - lb, lb]
        if l > 1 << EXHAUSTIVE_SUMSET_K and l & (l - 1) == 0:
            entry = {"k": l.bit_length() - 1, "mode": "inductive", "subsets_checked": 0}
            certificate = {"l_max": l, "margin": margin, "split": split}
            entries.append(entry | {"violations": list(failed), "certificate": certificate})
    return SumsetBoundReport(k_max=k_max, entries=tuple(entries))


def mixed_min_pair_sumset(k):
    """Minimum |A^k + {y1, y2}| over distinct ternary words: 3 * 2^(k-1), in closed form.

    A^k + y is the product of the digit sets {y_i, y_i + 1}, so the overlap
    |(A^k + y1) & (A^k + y2)| is the product over digits of |{a, a+1} & {b, b+1}|:
    2 where the digits agree, 1 where they differ by one, 0 where by two. Distinct
    words differ in some digit, so the overlap is at most 2^(k-1) and the union at
    least 2^(k+1) - 2^(k-1). The words 0...0 and 10...0, packed 0 and 1, reach it,
    and no pair comes before them in packed row-major order: the witness is the
    first minimum pair.
    """
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if k > MIXED_PAIR_LIMIT:
        raise ZefcError(
            "k_too_large",
            f"gamma-pair is held to k<={MIXED_PAIR_LIMIT}, the range its recorded reports cover",
            k=k,
        )
    return MixedPairResult(k=k, value=3 << (k - 1), witness=("0" * k, "1" + "0" * (k - 1)))
