"""Code constructions, admissibility checking, rate accounting, serialization."""

import functools
import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zefc import codec
from zefc.bitspace import word_to_string
from zefc.capacity import construct_for_case
from zefc.codec import (
    MAX_PACKING_BITS,
    MAX_SPLIT_BASE_K,
    ChannelCaps,
    KShotCode,
    SwitchPair,
    _canonical_labels,
    _decimal_table,
    _digit_rows,
    build_identity_code,
    build_packing_code_11,
    build_split_code_01,
    check_admissible,
    code_parts,
    code_text,
    code_to_json,
    first_seen,
    lift_code,
    rate_account,
    split_index,
)
from zefc.errors import ZefcError
from zefc.exact import exact_pow2_floor, least_uses

import oracles

CAPS21 = ChannelCaps.of(2, 1)
CAPS11 = ChannelCaps.of(1, 1)
CAPS32 = ChannelCaps.of(3, 2)

# Frozen rate tables computed from the image-size formulas by hand before coding:
# split caps (2,1): k -> (k1, im1, im2, n1, n2, n, rate)
SPLIT21 = {
    1: (1, 2, 2, 1, 1, 1, Fraction(1)),
    2: (1, 4, 4, 1, 2, 2, Fraction(1)),
    3: (2, 12, 4, 2, 2, 2, Fraction(3, 2)),
    4: (2, 24, 8, 3, 3, 3, Fraction(4, 3)),
    5: (2, 48, 16, 3, 4, 4, Fraction(5, 4)),
    6: (3, 144, 16, 4, 4, 4, Fraction(3, 2)),
    7: (3, 288, 32, 5, 5, 5, Fraction(7, 5)),
    8: (4, 864, 32, 5, 5, 5, Fraction(8, 5)),
    16: (7, 746496, 1024, 10, 10, 10, Fraction(8, 5)),
}

SPLIT21_K1 = [1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5]
SPLIT32_K1 = [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]


def test_switch_pair():
    sp = SwitchPair.from_string("01")
    assert (sp.s1, sp.s2) == (0, 1) and sp.as_string() == "01"
    assert SwitchPair(1, 1).dominates(sp) and not sp.dominates(SwitchPair(1, 1))
    for bad in ("2", "001", "ab", ""):
        with pytest.raises(ZefcError) as err:
            SwitchPair.from_string(bad)
        assert err.value.code == "bad_switches"


def test_channel_caps_parse_and_normalize():
    caps = ChannelCaps.of("1/2", "3/2")
    assert caps.c1 == Fraction(3, 2) and caps.c2 == Fraction(1, 2)
    assert ChannelCaps.of("2", "1").as_strings() == ("2", "1")
    for pair in (("inf", 3), (2, "inf"), ("inf", "inf")):
        with pytest.raises(ZefcError) as err:
            ChannelCaps.of(*pair)
        assert err.value.code == "bad_caps"
    with pytest.raises(ZefcError):
        ChannelCaps.of(0, 1)
    with pytest.raises(ZefcError):
        ChannelCaps.of("1/65", 1)
    with pytest.raises(ZefcError):
        ChannelCaps.of("x", 1)


def test_least_uses_exact_boundaries():
    assert least_uses(1, Fraction(2)) == 0
    assert least_uses(16, Fraction(2)) == 2
    assert least_uses(17, Fraction(2)) == 3
    assert least_uses(12, Fraction(2)) == 2
    assert least_uses(8, Fraction(3, 2)) == 2
    assert least_uses(9, Fraction(3, 2)) == 3
    with pytest.raises(ZefcError) as err:
        least_uses(0, Fraction(1))
    assert err.value.code == "empty_image"


def test_exponent_shortcuts_match_exact_powers():
    caps = [
        ChannelCaps.of(Fraction(a, b), Fraction(c, d))
        for a in range(1, 9)
        for b in (1, 2, 3)
        for c in range(1, 9)
        for d in (1, 4)
        if Fraction(a, b) >= Fraction(c, d)
    ]
    for cap in caps:
        a, b = cap.c1 - cap.c2, cap.c2
        for k in (1, 2, 5, 13, 30):
            want = 1 if a == 0 else next(
                k1
                for k1 in range(1, k + 1)
                if 3 ** (k1 * b.numerator * a.denominator)
                >= 2 ** (a.numerator * b.denominator * (k - k1))
            )
            assert split_index(k, cap) == want, (cap, k)
        p, q = cap.c1.numerator, cap.c1.denominator
        for size in (2, 3, 9, 17, 3**13):
            want = next(n for n in range(10**4) if 2 ** (n * p) >= size**q)
            assert least_uses(size, cap.c1) == want, (cap, size)


def test_least_uses_above_64_bits_matches_exact_powers():
    sizes = [3**200, 2**300, 2**300 + 1, 2**300 - 1, 3**41 * 2**64, 5**90]
    caps = [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(63, 64), Fraction(127, 4032)]
    for size in sizes:
        for cap in caps:
            p, q = cap.numerator, cap.denominator
            target = size**q
            want = -(-q * (size.bit_length() - 1) // p)  # 2^(n*p) >= 2^(q*(bits-1))
            while 2 ** (want * p) < target:
                want += 1
            assert least_uses(size, cap) == want, (size, cap)


def test_packing_code_refuses_costly_block_lengths():
    with pytest.raises(ZefcError) as err:
        build_packing_code_11(10**8, CAPS21)
    assert err.value.code == "packing_too_costly"
    # The budget counts the bits of 3^k times the denominator of c2.
    caps = ChannelCaps.of("127/64", "63/64")
    k = next(k for k in range(1, 10**6) if math.ceil(k * math.log2(3)) * 64 > MAX_PACKING_BITS)
    with pytest.raises(ZefcError) as err:
        build_packing_code_11(k, caps)
    assert err.value.code == "packing_too_costly"
    assert rate_account(build_packing_code_11(1000, caps), caps).n == 534


def test_split_code_refuses_blocks_above_its_budget():
    with pytest.raises(ZefcError) as err:
        build_split_code_01(MAX_SPLIT_BASE_K + 1, CAPS21)
    assert err.value.code == "k_too_large"
    # No exponent budget: caps whose exponents share no factor answer like any other.
    assert split_index(5, ChannelCaps.of(2 * 10**30 + 3, 10**30 + 1)) == 2
    assert split_index(5, ChannelCaps.of("2e30", "1e30")) == split_index(5, CAPS21)
    # Caps (2,1): least k1 >= k / (1 + log2(3)), past the k the exponent budget refused.
    log2_3 = Decimal(3).ln() / Decimal(2).ln()
    for k in (2_000_001, MAX_SPLIT_BASE_K):
        assert split_index(k, CAPS21) == math.ceil(k / (1 + log2_3)), k


# The old power comparison stops at a gcd-reduced exponent of 2^20; every cap pair here
# answers to k = 400 either way.
SWEEP_CAPS = [(2, 1), (3, 2), ("7/3", "5/4"), ("3/2", 1), ("127/64", "63/64"), (5, 1), (64, "1/64")]


def test_split_index_matches_power_oracle():
    checked = 0
    for c1, c2 in SWEEP_CAPS:
        caps = ChannelCaps.of(c1, c2)
        for k in range(1, 401):
            want = oracles.split_index_powers(k, caps.c1, caps.c2)
            if want is not None:
                assert split_index(k, caps) == want, (c1, c2, k)
                checked += 1
    assert checked == 2800


def test_exact_pow2_floor():
    assert exact_pow2_floor(3, Fraction(2)) == 64
    assert exact_pow2_floor(3, Fraction(1, 2)) == 2
    assert exact_pow2_floor(5, Fraction(1, 2)) == 5
    assert exact_pow2_floor(11, Fraction(1)) == 2048


def test_identity_code_rates():
    code = build_identity_code(4)
    assert (code.im1, code.im2) == (16, 16)
    acct = rate_account(code, CAPS21)
    assert (acct.n1, acct.n2, acct.n) == (2, 4, 4)
    assert acct.rate == 1
    assert check_admissible(code).ok


def test_identity_large_k_accounting():
    code = build_identity_code(200)
    acct = rate_account(code, CAPS21)
    assert (acct.n1, acct.n2, acct.n) == (100, 200, 200)


def test_lift_identity_all_cases():
    code = build_identity_code(3)
    for s in ("10", "01", "11"):
        lifted = lift_code(code, SwitchPair.from_string(s))
        assert lifted.switches.as_string() == s
        assert check_admissible(lifted).ok
    with pytest.raises(ZefcError) as err:
        lift_code(build_split_code_01(3, CAPS21), SwitchPair.from_string("10"))
    assert err.value.code == "bad_lift"


def test_split_index_tables():
    assert [split_index(k, CAPS21) for k in range(1, 13)] == SPLIT21_K1
    assert [split_index(k, CAPS32) for k in range(1, 13)] == SPLIT32_K1
    assert split_index(100, CAPS21) == 39
    assert split_index(7, CAPS11) == 1


def test_split_code_frozen_table():
    for k, (k1, im1, im2, n1, n2, n, rate) in SPLIT21.items():
        code = build_split_code_01(k, CAPS21)
        assert split_index(k, CAPS21) == k1
        assert (code.im1, code.im2) == (im1, im2)
        acct = rate_account(code, CAPS21)
        assert (acct.n1, acct.n2, acct.n, acct.rate) == (n1, n2, n, rate)


def test_split_code_large_k():
    code = build_split_code_01(100, CAPS21)
    assert code.im1 == 3 ** 38 * 2 ** 62 and code.im2 == 2 ** 62
    acct = rate_account(code, CAPS21)
    assert acct.n == 62 and acct.rate == Fraction(100, 62)
    assert rate_account(build_split_code_01(128, CAPS21), CAPS21).n == 79
    assert rate_account(build_split_code_01(200, CAPS21), CAPS21).n == 123


def test_split_code_admissible():
    for k in range(1, 9):
        for caps in (CAPS21, CAPS11, CAPS32):
            assert check_admissible(build_split_code_01(k, caps)).ok


def test_split_equal_caps_reduces_to_identity_shape():
    code = build_split_code_01(4, CAPS11)
    assert (code.im1, code.im2) == (16, 16)


def test_packing_code_frozen_values():
    code = build_packing_code_11(20, CAPS21)
    acct = rate_account(code, CAPS21)
    assert acct.n == 11 and acct.rate == Fraction(20, 11)
    assert code.im2 == 2048 and code.im1 == 1702532
    assert rate_account(build_packing_code_11(3, CAPS21), CAPS21).n == 2
    assert rate_account(build_packing_code_11(1, CAPS11), CAPS11).n == 1


def test_packing_code_admissible_and_budget():
    halves = ChannelCaps.of("3/2", "1/2")
    cases = [(k, caps) for k in range(1, 9) for caps in (CAPS21, CAPS11, CAPS32, halves)]
    # Criterion 8 reads only the image sizes; this checks the tables up to k = 10.
    cases += [(k, caps) for k in (9, 10) for caps in (CAPS21, halves)]
    for k, caps in cases:
        code = build_packing_code_11(k, caps)
        assert check_admissible(code).ok
        acct = rate_account(code, caps)
        assert code.im1 * code.im2 >= 3 ** k
        assert acct.n1 <= acct.n and acct.n2 <= acct.n


def test_packing_fractional_caps_budget_sweep():
    for caps in (ChannelCaps.of("3/2", "1/2"), ChannelCaps.of("7/3", "1/3")):
        for k in range(1, 45):
            code = build_packing_code_11(k, caps)
            acct = rate_account(code, caps)
            p = caps.c1 + caps.c2
            assert 2 ** (acct.n * p.numerator) >= 3 ** (k * p.denominator) or acct.n == max(
                least_uses(code.im1, caps.c1), least_uses(code.im2, caps.c2)
            )


def test_admissibility_counterexample_and_refusal():
    zeros = np.zeros((4, 4), dtype=np.int64)
    bad = KShotCode(
        k=2,
        switches=SwitchPair(1, 1),
        phi1=zeros,
        phi2=zeros,
        psi=np.zeros((1, 1), dtype=np.int64),
        im1=1,
        im2=1,
        name="constant",
    )
    res = check_admissible(bad)
    assert not res.ok
    assert res.counterexample == {"x": "00", "y": "10", "expected": "10", "decoded": "00"}
    with pytest.raises(ZefcError) as err:
        check_admissible(build_identity_code(11))
    assert err.value.code == "k_too_large"


def test_admissibility_matches_oracle_on_all_builders():
    for k in (1, 2, 3):
        for code in (
            build_identity_code(k),
            build_split_code_01(k, CAPS21),
            build_packing_code_11(k, CAPS21),
        ):
            words = oracles.all_words(2, k)
            for xa in words:
                for ya in words:
                    x = sum(b << i for i, b in enumerate(xa))
                    y = sum(b << i for i, b in enumerate(ya))
                    want = sum(t * 3 ** i for i, t in enumerate(oracles.tuple_add(xa, ya)))
                    assert code.psi[code.phi1[x, y], code.phi2[x, y]] == want


def test_code_json_round_trip():
    for k in (1, 2, 3):
        for build in (
            lambda k=k: build_identity_code(k),
            lambda k=k: build_split_code_01(k, CAPS21),
            lambda k=k: build_packing_code_11(k, CAPS21),
        ):
            code = build()
            doc = json.loads(json.dumps(code_to_json(code)))
            assert doc["images"] == [code.im1, code.im2]
            assert oracles.printed_code_admissible(doc)


def test_code_json_canonical_labels():
    doc = code_to_json(build_split_code_01(2, CAPS21))
    assert doc["switches"] == "01"
    assert doc["phi1"]["00,00"] == 0
    labels1 = sorted(set(doc["phi1"].values()))
    assert labels1 == list(range(len(labels1)))
    for render in (code_parts, code_text, code_to_json):
        with pytest.raises(ZefcError) as err:
            render(build_identity_code(11))
        assert err.value.code == "k_too_large"


# Widths change at each power of 10; 59048 = 3^10 - 1 is the widest case-11 label.
DECIMAL_EDGES = (0, 9, 10, 99, 100, 999, 1000, 1023, 59048)


@pytest.mark.parametrize(
    "values",
    [
        np.array(DECIMAL_EDGES),
        np.array(DECIMAL_EDGES).reshape(3, 3),
        np.zeros(5, dtype=np.int64),
        np.zeros((2, 3), dtype=np.int64),
        *(np.array([[v, 0], [v // 2, v]]) for v in DECIMAL_EDGES[1:]),
    ],
)
def test_decimal_rows_match_str(values):
    # Labels are rendered as the rows of the table for 0..max, gathered by value.
    rows = _decimal_table(int(values.max()) + 1)[values]
    assert rows.shape == (*values.shape, len(str(values.max())))
    for value, row in zip(values.ravel().tolist(), rows.reshape(-1, rows.shape[-1])):
        # Right-aligned: every 0 byte comes before the digits.
        assert row.tobytes().lstrip(b"\0").decode("ascii") == str(value)


def test_digit_rows_match_word_to_string():
    for radix in (2, 3):
        for k in range(1, codec.MAX_EXHAUSTIVE_K + 1):
            rows = _digit_rows(k, radix)
            assert rows.shape == (radix**k, k) and rows.dtype == np.uint8
            want = [word_to_string(v, k, radix) for v in range(radix**k)]
            assert [row.tobytes().decode("ascii") for row in rows] == want, (radix, k)


def _random_label_code(rng, k, switches):
    """A code whose swept labels are seeded random and dense in range(im1), range(im2)."""
    size = 1 << k

    def sweep(paired):
        n = size * size if paired else size
        top = int(rng.integers(1, n + 1))
        labels = rng.integers(0, top, n)
        labels[rng.permutation(n)[:top]] = np.arange(top)  # every label appears
        return labels, top

    (flat1, im1), (flat2, im2) = sweep(switches.s2 == 1), sweep(switches.s1 == 1)
    phi1 = flat1.reshape(size, -1) if switches.s2 == 1 else np.repeat(flat1[:, None], size, 1)
    phi2 = flat2.reshape(size, -1).T if switches.s1 == 1 else np.repeat(flat2[None], size, 0)
    psi = np.zeros((im1, im2), dtype=np.int64)
    return KShotCode(k, switches, phi1, phi2, psi, im1, im2, name="random"), (flat1, flat2)


@pytest.mark.parametrize("case", ["00", "01", "10", "11"])
def test_canonical_labels_match_a_first_seen_loop(case):
    rng = np.random.default_rng(int(case, 2))
    for k in range(1, 7):
        code, sweeps = _random_label_code(rng, k, SwitchPair.from_string(case))
        for (flat, rank, old), sweep in zip(_canonical_labels(code), sweeps):
            order = oracles.first_seen_order(sweep.tolist())
            assert flat.flags.c_contiguous and flat.tolist() == sweep.tolist(), (case, k)
            assert rank[flat].tolist() == [order[v] for v in sweep.tolist()], (case, k)
            assert old.tolist() == list(order), (case, k)
        # Drop the last label of encoder 1: the declared image size no longer matches.
        if code.im1 > 1:
            phi1 = np.where(code.phi1 == code.im1 - 1, 0, code.phi1)
            tables = (phi1, code.phi2, code.psi)
            short = KShotCode(k, code.switches, *tables, code.im1, code.im2, name="short")
            with pytest.raises(ZefcError) as err:
                _canonical_labels(short)
            assert err.value.code == "bad_image_count", (case, k)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_first_seen_matches_a_first_appearance_loop(dtype):
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    top = min(np.iinfo(dtype).max, 1 << 20) + 1
    # 256 and 65536 distinct labels put the largest new label at the top of uint8
    # and uint16, one more label just past it.
    for count in (1, 7, 256, 257, 1 << 16, (1 << 16) + 1):
        if count > top:
            continue
        size = max(64, 4 * count)
        pool = rng.choice(top, size=count, replace=False).astype(dtype)
        flat = np.concatenate([pool, pool[rng.integers(0, count, size)]])
        rng.shuffle(flat)
        rank, starts = first_seen(flat)
        values = flat.tolist()
        order = oracles.first_seen_order(values)
        firsts = {}
        for position, value in enumerate(values):
            firsts.setdefault(value, position)
        assert rank[flat].tolist() == [order[v] for v in values], (dtype, count)
        assert starts.tolist() == [firsts[v] for v in order], (dtype, count)
        assert rank.dtype == np.min_scalar_type(count - 1) and starts.dtype == np.int32


def _builders():
    """Each code builder with the caps it is checked at, as functions of k."""
    yield build_identity_code
    for caps in (CAPS21, CAPS11, CAPS32):
        yield functools.partial(build_split_code_01, caps=caps)
        yield functools.partial(build_packing_code_11, caps=caps)


def test_tables_have_the_narrowest_dtype_for_their_range():
    for build in _builders():
        for k in range(1, codec.MAX_EXHAUSTIVE_K + 1):
            code = build(k)
            for name, top in (("phi1", code.im1), ("phi2", code.im2), ("psi", 3**k)):
                table = getattr(code, name)
                assert table.dtype == np.min_scalar_type(top - 1), (code.name, k, name)


def test_case_11_code_builds_and_renders_within_a_memory_bound():
    # With int64 tables and cached digit strings the peak was 10.7 MB, and with a
    # whole-table label array and its intp index 3.5 MB; the narrow tables, the
    # ASCII rows built in numpy and the gather by old label keep it near 2.0 MB.
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code = construct_for_case(SwitchPair(1, 1), 9, CAPS11)
        size = sum(len(piece) for piece in code_parts(code))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert size > 16_000_000
    assert peak < 3_000_000, peak


def test_split_rate_capped_and_doubling_improves():
    cap_value = 1.6309297535714575
    rates = {}
    for k in range(1, 201):
        rates[k] = rate_account(build_split_code_01(k, CAPS21), CAPS21).rate
        assert float(rates[k]) <= cap_value + 1e-12
    for k in range(1, 101):
        gap_k = cap_value - float(rates[k])
        gap_2k = cap_value - float(rates[2 * k])
        assert gap_2k <= gap_k + 1e-9
    doubling = [float(rates[1 << j]) for j in range(8)]
    assert all(a <= b + 1e-12 for a, b in zip(doubling, doubling[1:]))


def test_code_tables_are_validated():
    zeros = np.zeros((4, 4), dtype=np.int64)
    psi = np.zeros((1, 1), dtype=np.int64)
    for phi1, psi_table in ((zeros + 1, psi), (zeros[:2], psi), (zeros, psi + 9)):
        with pytest.raises(ZefcError) as err:
            KShotCode(2, SwitchPair(1, 1), phi1, zeros, psi_table, im1=1, im2=1, name="bad")
        assert err.value.code == "bad_code"


def test_rate_only_codes_refuse_table_consumers():
    for case in ("00", "01", "10", "11"):
        code = construct_for_case(SwitchPair.from_string(case), 200, CAPS21)
        assert code.phi1 is None and code.phi2 is None and code.psi is None
        assert rate_account(code, CAPS21).n >= 1
        for consumer in (code_parts, code_text, code_to_json, check_admissible):
            with pytest.raises(ZefcError) as err:
                consumer(code)
            assert err.value.code == "k_too_large"
    assert rate_account(build_split_code_01(200, CAPS21), CAPS21).n == 123


@functools.lru_cache(maxsize=None)
def _to3(word, width):
    """Base-3 packing of a width-bit word, one digit at a time."""
    return sum(((word >> i) & 1) * 3**i for i in range(width))


def closure_code(case, k, caps):
    """The case's construction as per-pair closures: phi1, phi2, psi, im1, im2."""
    if case in ("00", "10"):
        return (
            lambda x, y: x,
            lambda x, y: y,
            lambda a, b: _to3(a, k) + _to3(b, k),
            1 << k,
            1 << k,
        )
    if case == "01":
        low = split_index(k, caps) - 1
        mask, base, high = (1 << low) - 1, 3**low, k - low
        return (
            lambda x, y: _to3(x & mask, low) + _to3(y & mask, low) + base * (x >> low),
            lambda x, y: y >> low,
            lambda a, b: a % base + base * (_to3(a // base, high) + _to3(b, high)),
            base << high,
            1 << high,
        )
    packing = build_packing_code_11(k, caps)
    narrow, top = packing.im2, 3**k - 1
    return (
        lambda x, y: (_to3(x, k) + _to3(y, k)) // narrow,
        lambda x, y: (_to3(x, k) + _to3(y, k)) % narrow,
        lambda a, b: min(a * narrow + b, top),
        packing.im1,
        narrow,
    )


def test_code_json_matches_closure_oracle():
    grid = [
        (c1, c2, case, k)
        for c1, c2 in [("1", "1"), ("2", "1"), ("3", "2"), ("3/2", "1"), ("7/3", "5/4")]
        for case in ("00", "01", "10", "11")
        for k in range(1, 7)
    ]
    grid += [("2", "1", case, 8) for case in ("00", "01", "10", "11")]
    for c1, c2, case, k in grid:
        caps = ChannelCaps.of(c1, c2)
        code = construct_for_case(SwitchPair.from_string(case), k, caps)
        want = oracles.code_to_json_oracle(k, case, *closure_code(case, k, caps))
        # The text also fixes key order and indentation, which the CLI output depends on;
        # the CLI prints the code one level into its report.
        cli_text = '{\n  "code": ' + code_text(code, pad="  ") + "\n}"
        assert cli_text == json.dumps({"code": want}, indent=2), (case, c1, c2, k)
        assert code_text(code) == json.dumps(want, indent=2), (case, c1, c2, k)
        assert code_to_json(code) == want, (case, c1, c2, k)


def test_code_text_refuses_out_of_range_tables():
    builders = (
        build_identity_code,
        lambda k: build_split_code_01(k, CAPS21),
        lambda k: build_packing_code_11(k, CAPS21),
    )
    for build in builders:
        for table, value in (("psi", -1), ("psi", 27), ("phi1", -1), ("phi2", 1 << 40)):
            # Corrupt a built code the way its construction checks cannot see: a
            # negative entry would wrap around in numpy and list indexing, and a
            # huge label would size the relabeling array. The copy is int64, as
            # the built tables are too narrow to hold either value.
            code = build(3)
            corrupted = np.array(getattr(code, table), dtype=np.int64)
            corrupted.flat[0] = value
            object.__setattr__(code, table, corrupted)
            # code_parts is called, not iterated: it refuses before any text exists.
            for render in (code_parts, code_text, code_to_json):
                with pytest.raises(ZefcError) as err:
                    render(code)
                assert err.value.code == "bad_code", (code.name, table, value)


@pytest.mark.parametrize("block_bytes", [1, 1 << 40], ids=["one_row", "whole_table"])
def test_block_size_does_not_change_the_text(monkeypatch, block_bytes):
    caps = ChannelCaps.of("3", "2")
    codes = {
        (case, k): construct_for_case(SwitchPair.from_string(case), k, caps)
        for case in ("00", "01", "10", "11")
        for k in (1, 2, 3, 4, 7)
    }
    default = {key: code_text(code) for key, code in codes.items() if key[1] == 7}
    monkeypatch.setattr(codec, "BLOCK_BYTES", block_bytes)
    for (case, k), code in codes.items():
        pieces = list(code_parts(code))
        # Header, three tables and footer; one block per leading row, or per table.
        rows = 2 * (1 << k) + code.im1 if block_bytes == 1 else 3
        assert len(pieces) == 4 + rows, (case, k)
        text = "".join(pieces)
        if k == 7:
            assert text == default[case, k], case
        else:
            want = oracles.code_to_json_oracle(k, case, *closure_code(case, k, caps))
            assert text == json.dumps(want, indent=2), (case, k)


CAP_VALUES = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(["00", "01", "10", "11"]),
    c1=CAP_VALUES,
    c2=CAP_VALUES,
    k=st.integers(1, 5),
)
def test_code_json_round_trip_is_a_fixed_point(case, c1, c2, k):
    caps = ChannelCaps.of(c1, c2)
    doc = code_to_json(construct_for_case(SwitchPair.from_string(case), k, caps))
    assert oracles.printed_code_admissible(json.loads(json.dumps(doc)))


# Cap strings as a user may type them: decimals with exponents, signed fractions
# with denominators past MAX_CAP_DENOMINATOR, words for infinity, and whitespace.
CAP_TEXTS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", " ", "\t", " \n"]),
    st.one_of(
        st.builds(
            "{}{}.{}e{}".format,
            st.sampled_from(["", "-", "+"]),
            st.integers(0, 10**6),
            st.integers(0, 999),
            st.integers(-400, 400),
        ),
        st.builds(
            "{}/{}".format,
            st.one_of(st.integers(-100, 100), st.integers(-(2**520), 2**520)),
            st.integers(-3, 200),
        ),
        st.sampled_from(["inf", "-inf", "nan", "infinity", "Infinity", "unbounded", "NaN", ""]),
    ),
    st.sampled_from(["", " ", "\n"]),
)


@settings(max_examples=300, deadline=None)
@given(c1=CAP_TEXTS, c2=CAP_TEXTS)
def test_channel_caps_accept_or_refuse_with_bad_caps(c1, c2):
    try:
        caps = ChannelCaps.of(c1, c2)
    except ZefcError as err:
        assert err.code == "bad_caps"
        return
    assert 0 < caps.c2 <= caps.c1 <= 2**512
    assert caps.c1.denominator <= 64 and caps.c2.denominator <= 64
