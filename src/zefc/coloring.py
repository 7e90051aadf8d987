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
# verify aitch reads its report off the concavity lemma, so this bounds no cost: the
# tests check that no split of any l up to it fails in floats, with the oracle's scan.
MAX_AITCH_L = 4096
# The induction's certificate is a closed form, so this bounds no cost: the split it
# names is checked against the oracle's scan only up to k = 12, and the float margin
# cancels beyond it (relative error 2e-12 at k = 12, 7e-8 at k = 30).
MAX_SUMSET_BOUND_K = 12
# 2^k as a float overflows from k = 1024 on; below it, qk_lower_bound refuses the l
# whose float bound 2^k * h(l) does.
MAX_BRACKET_K = 1023


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
    violation_examples: tuple
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
    """Minimum |A^k + L| over subsets of size l: exact for k <= 4, else bracketed.

    A row holds Q_k(l) = C_k(l), the sumset size of the first l words, above the
    bound ceil(2^k * h(l)); an exact row also names those words.

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
    if not 0 <= l <= (1 << k):
        raise ZefcError("bad_ell", "subset size must lie in [0, 2^k]", k=k, l=l)
    # A bracketed row is exact only at l = 0, whose witness is the empty set.
    witness = [] if l == 0 else None if bracket else list(digit_strings(k, 2)[:l])
    value = colex_prefix_value(k, l)
    return QkResult(k, l, value, qk_lower_bound(k, l), value, witness is not None, witness)


def chi_m(k, m):
    """Least achievable max-block color count over partitions into exactly m blocks."""
    if k < 1:
        raise ZefcError("bad_k", "k must be at least 1", k=k)
    if k > EXACT_CHIM_LIMIT:
        raise ZefcError(
            "k_too_large",
            f"partition enumeration is limited to k<={EXACT_CHIM_LIMIT}",
            k=k,
        )
    if not 1 <= m <= 1 << k:
        raise ZefcError("bad_m", "block count must lie in [1, 2^k]", k=k, m=m)
    return _chi_m_search(k, m)


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


def verify_aitch_superadditivity(l_max):
    """Report 2*h(l_a) + h(l_b) >= 2*h(l) over every split of every l <= l_max.

    The concavity lemma on verify_sumset_lower_bound proves it at every split,
    so the report counts the splits and lists no violation. tau_maximality is
    the first failing split at tau + 0.01, read off in closed form: the splits
    of l = 1 and those with lb = 0 are equalities in floats too, and at l = 2
    the split [1, 1] fails, since 2*h(1) + h(1) = 3 < 2*2^(tau + 0.01). So it
    is l = 2 whenever l_max >= 2.
    """
    if l_max < 1:
        raise ZefcError("bad_ell", "l_max must be at least 1", l_max=l_max)
    if l_max > MAX_AITCH_L:
        raise ZefcError(
            "l_too_large",
            f"the closed form is checked against a float scan up to {MAX_AITCH_L}; "
            "l_max is limited to it",
            l_max=l_max,
        )
    maximality = None
    if l_max >= 2:
        bumped = TAU + 0.01
        lhs, rhs = 2 * aitch_tau(bumped, 1) + aitch_tau(bumped, 1), 2 * aitch_tau(bumped, 2)
        maximality = {"tau": bumped, "l": 2, "split": [1, 1], "lhs": lhs, "rhs": rhs}
    return AitchReport(
        l_max=l_max,
        tau=TAU,
        checked=sum(l // 2 + 1 for l in range(1, l_max + 1)),
        violations=0,
        violation_examples=(),
        tau_maximality=maximality,
    )


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
    return np.bitwise_count(union).sum(axis=0, dtype=np.int16), ells


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
    k follows once that holds for every split of every l.

    It does, by a concavity lemma. Let g(t) = 2 + t^tau - 2*(1 + t)^tau on
    [0, 1], with 0 < tau = log2(3) - 1 < 1. Then g(0) = 0, and g(1) = 0 since
    2^tau = 3/2. Also g''(t) = tau*(tau - 1)*(t^(tau-2) - 2*(1 + t)^(tau-2)),
    which is negative wherever t < 1/(2^(1/(2 - tau)) - 1), about 1.58 (the
    threshold is above 1 exactly when tau < 1). So g is concave on [0, 1] and
    g > 0 on (0, 1). The split condition is la^tau * g(lb/la) >= 0, with
    equality only at lb = 0 and la = lb. So no entry k > 4 has a violation.

    Entry k's certificate is the split [2^(k-1), 2^(k-1) - 1] and its margin
    2*h(la) + h(lb) - 2*h(l), meant as the least over the splits 1 <= lb < la
    of every l <= 2^k. For fixed lb, G(la, lb) = 2*h(la) + h(lb) - 2*h(la + lb)
    rises in la, since h' falls, so the least sits at some la = lb + 1. That
    G(b + 1, b) falls as b grows, which would put it at b = 2^(k-1) - 1, is
    not proved: the tests compare the certificate with a scan of every split
    at each k <= MAX_SUMSET_BOUND_K = 12, the whole accepted range.
    """
    if k_max < 1:
        raise ZefcError("bad_k", "k_max must be at least 1", k_max=k_max)
    if k_max > MAX_SUMSET_BOUND_K:
        message = f"the induction scans l <= 2^k_max; k_max is limited to {MAX_SUMSET_BOUND_K}"
        raise ZefcError("k_too_large", message, k_max=k_max)
    entries = [_exhaustive_entry(k) for k in range(1, min(k_max, EXHAUSTIVE_SUMSET_K) + 1)]
    for k in range(EXHAUSTIVE_SUMSET_K + 1, k_max + 1):
        la = 1 << (k - 1)
        margin = 2 * aitch(la) + aitch(la - 1) - 2 * aitch(2 * la - 1)
        certificate = {"l_max": 1 << k, "margin": margin, "split": [la, la - 1]}
        entry = {"k": k, "mode": "inductive", "subsets_checked": 0, "violations": []}
        entries.append(entry | {"certificate": certificate})
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
