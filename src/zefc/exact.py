"""Exact arithmetic in 2 and 3, stdlib only: the sign of p + q*log2(3), and closed forms.

Every capacity, the case-01 split and the cut-set bound ask whether 2^a or 3^b is larger.
"""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import ZefcError

# The one float log2(3): reports print floats formed from it.
LOG2_3 = math.log2(3)
# Up to this |a| + |b|, the sign of a + b*log2(3) comes from 2^|a| against 3^|b|,
# about 10 us; beyond it, from a decimal bracket of log2(3).
MAX_POWER_EXPONENT = 1 << 12


# Precisions are powers of two (see _digits), so the cache holds a few entries.
@functools.lru_cache(maxsize=None)
def log2_3_bounds(digits):
    """Fractions lo < log2(3) < hi from ln 3 / ln 2 at `digits` significant digits.

    decimal's ln is correctly rounded, so each logarithm is within one unit in
    its last place, at most 10^(1 - digits) for ln 3 in [1, 10) and ln 2 in
    [0.1, 1); that is the slack either way.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        ln3, ln2 = Fraction(Decimal(3).ln()), Fraction(Decimal(2).ln())
    slack = Fraction(1, 10 ** (digits - 1))
    return (ln3 - slack) / (ln2 + slack), (ln3 + slack) / (ln2 - slack)


def _sign(x):
    return (x > 0) - (x < 0)


def _digits(size):
    """A power-of-two precision, from 32 up, about 20 digits beyond the integer size."""
    digits = 32
    while digits < size.bit_length() // 3 + 20:
        digits *= 2
    return digits


def _integers(*values):
    """Rationals times their least common denominator, as integers."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def log2_3_sign(p, q):
    """Sign of p + q*log2(3) for rational p and q, exactly: -1, 0 or 1.

    Scaled to integers a and b, this is the sign of log2(2^a * 3^b). log2(3) is
    irrational, so the sign is 0 only at a = b = 0, and a bracket fine enough
    always settles it.
    """
    a, b = _integers(p, q)
    if _sign(a) * _sign(b) >= 0:
        return _sign(a) or _sign(b)
    if abs(a) + abs(b) <= MAX_POWER_EXPONENT:
        return _sign(a) if 1 << abs(a) > 3 ** abs(b) else -_sign(a)
    digits = _digits(abs(a) + abs(b))
    while True:
        bounds = log2_3_bounds(digits)
        low, high = (_sign(a * end.denominator + b * end.numerator) for end in bounds)
        if low == high:
            return low
        digits *= 2


def least_integer(p0, q0, p1, q1):
    """Least integer n with (p0 + n*p1) + (q0 + n*q1)*log2(3) >= 0, for p1, q1 >= 0 not both 0.

    The root comes from a bracket of log2(3) and is then settled by exact signs.
    """
    p0, q0, p1, q1 = _integers(p0, q0, p1, q1)
    top, bottom = log2_3_bounds(_digits(max(map(abs, (p0, q0, p1, q1)))))[0].as_integer_ratio()
    n = -((p0 * bottom + q0 * top) // (p1 * bottom + q1 * top))
    while log2_3_sign(p0 + n * p1, q0 + n * q1) < 0:
        n += 1
    while log2_3_sign(p0 + (n - 1) * p1, q0 + (n - 1) * q1) >= 0:
        n -= 1
    return n


def least_uses(image_size, cap):
    """Least n >= 0 with 2^(n*cap) >= image_size, by exact integer comparison."""
    if image_size < 1:
        raise ZefcError("empty_image", "encoder image must be nonempty", size=image_size)
    if image_size == 1:
        return 0
    p, q = cap.numerator, cap.denominator
    bits = image_size.bit_length()
    # image_size lies in [top, top + 1) * 2^shift with top of 64 bits, so
    # image_size^q lies in [low, high) * 2^(q*shift); only a power of two inside
    # that bracket needs image_size^q itself.
    shift = max(0, bits - 64)
    top = image_size >> shift
    low = top**q
    high = low if top << shift == image_size else (top + 1) ** q

    def enough(n):
        # image_size < 2^bits, so n*p >= q*bits settles a large cap at once.
        if n * p >= q * bits:
            return True
        e = n * p - q * shift
        if e < 0 or (1 << e) < low:
            return False
        return (1 << e) >= high or (1 << (n * p)) >= image_size**q

    n = max(0, math.floor(math.log2(image_size) / float(cap)) - 2)
    while not enough(n):
        n += 1
    while n > 0 and enough(n - 1):
        n -= 1
    return n


def _iroot(value, power):
    """Integer floor of value ** (1/power)."""
    if power == 1 or value < 2:
        return value
    x = 1 << -(-value.bit_length() // power)
    while True:
        y = ((power - 1) * x + value // x ** (power - 1)) // power
        if y >= x:
            break
        x = y
    while x ** power > value:
        x -= 1
    return x


def exact_pow2_floor(n, cap):
    """floor(2^(n*cap)) for rational cap, exactly."""
    p, q = cap.numerator, cap.denominator
    return _iroot(1 << (n * p), q)


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


def cutset_bound_formula(caps):
    """Closed form of the cut-set bound over the network family, for integer caps."""
    c1, c2 = int(caps.c1), int(caps.c2)
    # c1 <= c2 / (log2 3 - 1) exactly when c1 * log2(3) <= c1 + c2.
    if log2_3_sign(c1 + c2, -c1) >= 0:
        return float(c1)
    return (c1 + c2) / LOG2_3
