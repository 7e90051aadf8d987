"""Length-k words over {0,1} and {0,1,2}, and the componentwise sum.

Words are packed into single integers: binary words as k-bit integers,
ternary words, such as the sum x + y of two binary words, in base 3.
Position 1 is the least significant digit.  The canonical text form is the
digit string with position 1 leftmost, so "011" is the word (0, 1, 1).
Only this module adds words, all through the one cached int64 array
`binary_to_base3_table(k)`: `sum_table` gives every x + y as an array of the
narrowest unsigned dtype that holds range(3^k), `sum_rows` each sumset
A^k + y as a bitmask, and `sumset` the distinct sums of two iterables of
packed k-bit words, as int64.
"""

from functools import lru_cache

import numpy as np

from .errors import ZefcError

MAX_K = 20  # longest word a digit-string table or base-3 table is built for


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


@lru_cache(maxsize=None)
def binary_to_base3_table(k):
    """table[x] = base-3 packing of the k-bit word x (same digits), as a read-only int64 array.

    k = 0 is the empty word, packed as 0.
    """
    if k != 0:
        _check_k(k)
    table = np.zeros(1 << k, dtype=np.int64)
    for j in range(k):
        # x = 2^j + rest for rest < 2^j adds digit 1 at position j + 1
        np.add(table[: 1 << j], 3**j, out=table[1 << j : 2 << j])
    table.setflags(write=False)
    return table


def narrowest(values, top):
    """values, which lie in range(top), in the narrowest unsigned dtype that holds that range."""
    return values.astype(np.min_scalar_type(top - 1), copy=False)


def sum_table(k):
    """sums[x, y]: the packed base-3 sum of the k-bit words x and y, as a 2^k x 2^k array.

    Its dtype is the narrowest that holds range(3^k): uint8 up to k = 5, uint16
    up to k = 10 and uint32 up to MAX_K.
    """
    t3 = narrowest(binary_to_base3_table(k), 3**k)
    return t3[:, None] + t3[None, :]


def sum_rows(k):
    """Row y: the sumset A^k + y as a bitmask over the 3^k packed sums.

    Bit s of a row, little-endian, is set when s = x + y for some k-bit word x.
    Rows are uint8 arrays padded to whole 64-bit words, so they can be viewed as
    uint64 or read with int.from_bytes(row, "little"). They are packed one at a
    time, so no 2^k x 3^k array of flags is ever held.
    """
    t3 = binary_to_base3_table(k)
    present = np.zeros(64 * -(-(3**k) // 64), dtype=bool)
    row = np.empty_like(t3)
    for shift in t3:
        np.add(t3, shift, out=row)
        present[row] = True
        yield np.packbits(present, bitorder="little")
        present[row] = False


def distinct(values):
    """The distinct entries of an array, ascending, from one sort.

    It stands in for a plain np.unique, whose first call in a process imports
    numpy.ma under numpy 2.
    """
    flat = np.sort(values, axis=None)
    keep = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def sumset(k, m, l):
    """The distinct packed base-3 sums a + b of packed k-bit words a in m and b in l, ascending."""
    t3 = binary_to_base3_table(k)
    m, l = list(m), list(l)
    # Checked word by word: numpy would wrap a negative index around instead of failing.
    if not all(isinstance(w, (int, np.integer)) and 0 <= w < len(t3) for w in m + l):
        raise ZefcError("bad_value", "words must be integers in [0, 2^k)", k=k)
    m, l = np.array(m, dtype=np.int64), np.array(l, dtype=np.int64)
    return distinct(t3[m][:, None] + t3[l][None, :])
