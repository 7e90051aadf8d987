"""Length-k words over {0,1} and {0,1,2}, vector sets, and the sumset primitive.

Vectors are packed into single integers: binary words as k-bit integers,
ternary words in base 3 (and sums of binary+ternary words in base 4).
Position 1 is the least significant digit.  The canonical text form is the
digit string with position 1 leftmost, so "011" is the word (0, 1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ZefcError

MAX_K = 20  # packed-integer guarantee for vector objects


def _check_k(k):
    if not isinstance(k, int) or k < 1:
        raise ZefcError("bad_block_length", "block length must be a positive integer", k=k)
    if k > MAX_K:
        raise ZefcError("bad_block_length", f"block length limited to {MAX_K}", k=k)


def digits_of(value, k, radix):
    """Digits of a packed value, position 1 first."""
    out = []
    for _ in range(k):
        out.append(value % radix)
        value //= radix
    return tuple(out)


def pack_digits(digits, radix):
    """Inverse of digits_of."""
    value = 0
    for d in reversed(digits):
        value = value * radix + d
    return value


def word_to_string(value, k, radix):
    return "".join(str(d) for d in digits_of(value, k, radix))


@lru_cache(maxsize=None)
def digit_strings(k, radix):
    """word_to_string(v, k, radix) for every v in range(radix**k), in order of v."""
    _check_k(k)
    out = [""]
    for _ in range(k):
        # v = radix * rest + d puts digit d in front of rest's string
        out = [d + s for s in out for d in "0123456789"[:radix]]
    return tuple(out)


def word_from_string(s, radix):
    if not s or any(ch not in "0123456789" for ch in s):
        raise ZefcError("bad_digit_string", "expected a nonempty digit string", text=s)
    digits = tuple(int(ch) for ch in s)
    if any(d >= radix for d in digits):
        raise ZefcError("bad_digit_string", f"digit out of range for radix {radix}", text=s)
    return pack_digits(digits, radix), len(digits)


@dataclass(frozen=True)
class VectorSet:
    """A deduplicated set of packed same-length, same-alphabet words."""

    k: int
    radix: int
    members: frozenset

    def __post_init__(self):
        _check_k(self.k)
        if self.radix not in (2, 3, 4):
            raise ZefcError("bad_radix", "radix must be 2, 3 or 4", radix=self.radix)
        top = self.radix ** self.k
        if any(not (isinstance(v, int) and 0 <= v < top) for v in self.members):
            raise ZefcError("bad_value", "member out of range", k=self.k, radix=self.radix)

    @classmethod
    def of(cls, k, radix, values):
        return cls(k, radix, frozenset(values))

    @classmethod
    def full_binary(cls, k):
        _check_k(k)
        return cls(k, 2, frozenset(range(1 << k)))

    @classmethod
    def from_strings(cls, strings, radix=2):
        packed = []
        k = None
        for s in strings:
            value, kk = word_from_string(s, radix)
            if k is None:
                k = kk
            elif kk != k:
                raise ZefcError("length_mismatch", "members must share one length", lengths=(k, kk))
            packed.append(value)
        if k is None:
            raise ZefcError("bad_value", "cannot infer k from an empty list; use VectorSet.of")
        return cls(k, radix, frozenset(packed))

    def __len__(self):
        return len(self.members)

    def __contains__(self, value):
        return value in self.members

    def sorted_values(self):
        return sorted(self.members)

    def to_strings(self):
        return [word_to_string(v, self.k, self.radix) for v in self.sorted_values()]


@lru_cache(maxsize=None)
def binary_to_base3_table(k):
    """table[x] = base-3 packing of the k-bit word x (same digits)."""
    _check_k(k)
    out = [0] * (1 << k)
    for x in range(1, 1 << k):
        out[x] = (x & 1) + 3 * out[x >> 1]
    return tuple(out)


@lru_cache(maxsize=None)
def binary_to_base4_table(k):
    _check_k(k)
    out = [0] * (1 << k)
    for x in range(1, 1 << k):
        out[x] = (x & 1) + 4 * out[x >> 1]
    return tuple(out)


@lru_cache(maxsize=None)
def ternary_to_base4_table(k):
    _check_k(k)
    out = [0] * (3 ** k)
    for t in range(1, 3 ** k):
        out[t] = (t % 3) + 4 * out[t // 3]
    return tuple(out)


def sumset(m: VectorSet, l: VectorSet) -> VectorSet:
    """All pairwise componentwise sums of m (binary) and l (binary or ternary)."""
    if m.k != l.k:
        raise ZefcError("length_mismatch", "operands must share one length", km=m.k, kl=l.k)
    if m.radix != 2 or l.radix not in (2, 3):
        raise ZefcError(
            "unsupported_operands",
            "first operand must be binary; second may be binary or ternary",
            radix_m=m.radix,
            radix_l=l.radix,
        )
    if l.radix == 2:
        t3 = binary_to_base3_table(m.k)
        sums = {t3[a] + t3[b] for a in m.members for b in l.members}
        return VectorSet(m.k, 3, frozenset(sums))
    q_m = binary_to_base4_table(m.k)
    q_l = ternary_to_base4_table(m.k)
    sums = {q_m[a] + q_l[b] for a in m.members for b in l.members}
    return VectorSet(m.k, 4, frozenset(sums))
