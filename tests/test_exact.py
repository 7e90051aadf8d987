"""The exact sign of p + q*log2(3), against integer powers, decimal oracles and float ceilings."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from oracles import converse_uses_float
from zefc import exact
from zefc.capacity import least_converse_uses
from zefc.codec import ChannelCaps, SwitchPair
from zefc.exact import MAX_POWER_EXPONENT, least_integer, log2_3_sign

# log2(3) to 400 digits, from decimal alone: the oracle for exponents too large to raise.
with localcontext() as _ctx:
    _ctx.prec = 400
    LOG2_3_DECIMAL = Decimal(3).ln() / Decimal(2).ln()


def _decimal_sign(p, q):
    """Sign of p + q*log2(3) at 400 digits; enough for |p|, |q| below about 10^190."""
    with localcontext() as ctx:
        ctx.prec = 400
        value = Decimal(p) + Decimal(q) * LOG2_3_DECIMAL
    return (value > 0) - (value < 0)


def _convergents(limit):
    """Convergents p/q of log2(3), from its continued fraction, until q passes limit."""
    with localcontext() as ctx:
        ctx.prec = 400
        x, (p0, q0), (p1, q1) = LOG2_3_DECIMAL, (1, 0), (0, 1)
        while q0 <= limit:
            digit = int(x)
            p0, q0, p1, q1 = digit * p0 + p1, digit * q0 + q1, p0, q0
            yield p0, q0
            x = 1 / (x - digit)


# The convergents test_nfc's near-tie caps come from, then every one past 10^30.
NEAR_TIES = [(8, 5), (19, 12), (65, 41), (84, 53), (485, 306)]
CONVERGENTS = list(_convergents(10**40))


def test_sign_matches_integer_powers():
    for a in range(-60, 61):
        for b in range(-60, 61):
            value = Fraction(2) ** a * Fraction(3) ** b
            want = (value > 1) - (value < 1)
            assert log2_3_sign(a, b) == want, (a, b)
            assert log2_3_sign(Fraction(a, 7), Fraction(b, 7)) == want, (a, b)


def _convergent_mismatches():
    """Convergents p/q at which the sign of p - q*log2(3) disagrees with the oracle."""
    return [
        (p, q)
        for p, q in CONVERGENTS
        for sign in (1, -1)
        if log2_3_sign(sign * p, -sign * q) != _decimal_sign(sign * p, -sign * q)
    ]


def test_sign_at_convergents():
    assert set(NEAR_TIES) <= set(CONVERGENTS)
    assert CONVERGENTS[-1][1] > 10**40 and sum(q > 10**30 for _, q in CONVERGENTS) >= 3
    for p, q in NEAR_TIES:
        assert log2_3_sign(p, -q) == (1 if 2**p > 3**q else -1), (p, q)
    assert _convergent_mismatches() == []
    # Convergents lie on alternate sides of log2(3).
    signs = [log2_3_sign(p, -q) for p, q in CONVERGENTS]
    assert all(s == -t for s, t in zip(signs, signs[1:]))


def test_sign_near_2_to_530():
    for shift in range(-3, 4):
        p = (1 << 530) + shift
        with localcontext() as ctx:
            ctx.prec = 400
            q = int(Decimal(p) / LOG2_3_DECIMAL)  # q*log2(3) < p < (q + 1)*log2(3)
        assert p + q > MAX_POWER_EXPONENT
        assert log2_3_sign(p, -q) == 1 == _decimal_sign(p, -q)
        assert log2_3_sign(p, -q - 1) == -1 == _decimal_sign(p, -q - 1)
        assert log2_3_sign(-p, q) == -1
        assert log2_3_sign(Fraction(p, 3), Fraction(-q - 1, 3)) == -1


def test_nudged_log2_3_flips_a_convergent(monkeypatch):
    # A bracket around log2(3) + 1e-15, or - 1e-15, must fail the convergent check.
    with localcontext() as ctx:
        ctx.prec = 400
        center = Fraction(LOG2_3_DECIMAL)
    for nudge in (Fraction(1e-15), -Fraction(1e-15)):
        wrong = center + nudge
        tiny = Fraction(1, 10**300)
        monkeypatch.setattr(exact, "log2_3_bounds", lambda digits: (wrong - tiny, wrong + tiny))
        assert _convergent_mismatches() != [], nudge
    monkeypatch.undo()
    assert _convergent_mismatches() == []


def test_sign_on_the_bracket_lines_of_1_lt_log2_3_lt_2():
    # 1 < log2(3) < 2 settles |a| >= 2|b| (a's sign) and |a| <= |b| (b's sign) with
    # no power; one step inside either line the power or decimal path decides.
    checked = 0
    for exponent in range(41):
        for b in {1, 2, 3, 10**exponent, 10**exponent + 7, 3 * 10**exponent // 7 + 1}:
            for a in (b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1):
                for sa, sb in ((1, -1), (-1, 1)):
                    p, q = sa * a, sb * b
                    want = _decimal_sign(p, q)
                    assert log2_3_sign(p, q) == want, (p, q)
                    # The same sign with one or both arguments a Fraction of denominator 3.
                    assert log2_3_sign(Fraction(3 * p, 3), q) == want, (p, q)
                    assert log2_3_sign(Fraction(p, 3), Fraction(q, 3)) == want, (p, q)
                    assert log2_3_sign(p, Fraction(3 * q, 3)) == want, (p, q)
                    checked += 1
    assert checked > 1200


def test_least_integer_brackets_its_root():
    for p0, q0, p1, q1 in [(0, -5, 1, 0), (-7, 0, 1, 1), (3, -100, Fraction(1, 3), 2), (0, 0, 0, 1)]:
        n = least_integer(p0, q0, p1, q1)
        assert log2_3_sign(p0 + n * p1, q0 + n * q1) >= 0
        assert log2_3_sign(p0 + (n - 1) * p1, q0 + (n - 1) * q1) < 0
    assert least_integer(0, -5, 1, 0) == 8  # ceil(5 * log2(3))


CONVERSE_CAPS = [
    (2, 1), (3, 2), (1, 1), ("7/3", "5/4"), ("3/2", 1), ("127/64", "63/64"), (5, 1), (64, "1/64"),
]


def test_exact_converse_matches_float_ceiling():
    # The float ceiling it replaced, with its 1e-9 slack, agrees at every point here.
    checked = 0
    for c1, c2 in CONVERSE_CAPS:
        caps = ChannelCaps.of(c1, c2)
        for case in ("00", "10", "01", "11"):
            switches = SwitchPair.from_string(case)
            for k in [*range(1, 260), 1000, 4096]:
                uses = converse_uses_float(case, caps.c1, caps.c2, k)
                want = max(1, math.ceil(uses - 1e-9))
                assert least_converse_uses(switches, caps, k) == want, (c1, c2, case, k)
                checked += 1
    assert checked == 8352
