"""Length-k words over {0,1} and {0,1,2}, vector sets, and the componentwise sum.

Vectors are packed into single integers: binary words as k-bit integers,
ternary words, such as the sum x + y of two binary words, in base 3.
Position 1 is the least significant digit.  The canonical text form is the
digit string with position 1 leftmost, so "011" is the word (0, 1, 1).
Only this module adds words: `sum_table` gives every x + y as an array,
`sum_rows` each sumset A^k + y as a bitmask, and `sumset` the sums of two sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
        if self.radix not in (2, 3):
            raise ZefcError("bad_radix", "radix must be 2 or 3", radix=self.radix)
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


def sum_table(k):
    """sums[x, y]: the packed base-3 sum of the k-bit words x and y, as a 2^k x 2^k array."""
    t3 = np.array(binary_to_base3_table(k), dtype=np.int64)
    return t3[:, None] + t3[None, :]


def sum_rows(k):
    """Row y: the sumset A^k + y as a bitmask over the 3^k packed sums.

    Bit s of a row, little-endian, is set when s = x + y for some k-bit word x.
    Rows are uint8 arrays padded to whole 64-bit words, so they can be viewed as
    uint64 or read with int.from_bytes(row, "little"). They are packed one at a
    time, so no 2^k x 3^k array of flags is ever held.
    """
    t3 = np.array(binary_to_base3_table(k), dtype=np.int64)
    present = np.zeros(64 * -(-(3**k) // 64), dtype=bool)
    row = np.empty_like(t3)
    for shift in t3:
        np.add(t3, shift, out=row)
        present[row] = True
        yield np.packbits(present, bitorder="little")
        present[row] = False


def sumset(m: VectorSet, l: VectorSet) -> VectorSet:
    """All pairwise componentwise sums of two binary sets, packed in base 3."""
    if m.k != l.k:
        raise ZefcError("length_mismatch", "operands must share one length", km=m.k, kl=l.k)
    if m.radix != 2 or l.radix != 2:
        raise ZefcError(
            "unsupported_operands", "both operands must be binary", radix_m=m.radix, radix_l=l.radix
        )
    t3 = binary_to_base3_table(m.k)
    return VectorSet(m.k, 3, frozenset({t3[a] + t3[b] for a in m.members for b in l.members}))
