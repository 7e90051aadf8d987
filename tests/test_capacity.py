"""Closed-form capacities, converse envelope, and finite-k witnesses."""

import math
from fractions import Fraction

import pytest

from oracles import converse_envelope, packing_uses_oracle
from zefc import capacity as capacity_module
from zefc.capacity import capacity, construct_for_case, least_converse_uses
from zefc.codec import ChannelCaps, KShotCode, SwitchPair, packing_sizes, packing_uses, rate_account
from zefc.errors import ZefcError

LOG2_3 = math.log2(3)
CAPS21 = ChannelCaps.of(2, 1)


def query(case, c1, c2):
    return SwitchPair.from_string(case), ChannelCaps.of(c1, c2)


def test_closed_forms_four_cases():
    assert capacity(*query("00", 2, 1)).value == 1.0
    assert capacity(*query("00", 2, 1)).formula == "C2"
    assert capacity(*query("10", 2, 1)).value == 1.0
    eleven = capacity(*query("11", 2, 1))
    assert abs(eleven.value - 3 / LOG2_3) < 1e-12
    assert eleven.formula == "(C1+C2)/log2(3)"
    one = capacity(*query("01", 2, 1))
    assert one.value == math.log2(6) / LOG2_3
    assert one.formula == "log3(6)"
    general = capacity(*query("01", 3, 2))
    assert abs(general.value - (1 / LOG2_3 + 2)) < 1e-12
    assert general.formula == "(C1-C2)*log3(2)+C2"


def test_closed_forms_rational_caps():
    got = capacity(*query("11", "7/2", "3/2"))
    assert abs(got.value - 5 / LOG2_3) < 1e-12
    got = capacity(*query("01", "5/2", "1/2"))
    assert abs(got.value - (2 / LOG2_3 + 0.5)) < 1e-12
    assert capacity(*query("00", "3/4", "1/4")).value == 0.25


def test_capacity_consistency_at_equal_caps():
    for c in (1, 2, Fraction(7, 2)):
        same = float(c)
        assert abs(capacity(*query("01", c, c)).value - same) < 1e-12
        assert abs(capacity(*query("00", c, c)).value - same) < 1e-12


def test_capacity_with_witness():
    got = capacity(*query("01", 2, 1), witness_k=100)
    assert got.achievable_witness == pytest.approx(100 / 62, abs=1e-15)
    assert got.converse_bound == pytest.approx(100 / 62, abs=1e-15)
    assert got.achievable_witness <= got.value
    for case in ("00", "10", "11"):
        got = capacity(*query(case, 2, 1), witness_k=12)
        assert got.achievable_witness <= got.value + 1e-12
        assert got.achievable_witness <= got.converse_bound + 1e-12
    for case in ("00", "01", "10", "11"):
        with pytest.raises(ZefcError) as err:
            capacity(*query(case, 2, 1), witness_k=0)
        assert err.value.code == "bad_k"


def test_witness_above_the_bound_is_refused(monkeypatch):
    def rate_only(im1, im2):
        return lambda switches, k, caps: KShotCode(k, switches, None, None, None, im1, im2, "stub")

    # Images of two labels each: one channel use apiece carries all 100 digits.
    monkeypatch.setattr(capacity_module, "construct_for_case", rate_only(2, 2))
    for case in ("00", "01", "10", "11"):
        with pytest.raises(ZefcError) as err:
            capacity(*query(case, 2, 1), witness_k=100)
        assert err.value.code == "rate_above_bound", case
    monkeypatch.setattr(capacity_module, "construct_for_case", rate_only(1, 1))
    with pytest.raises(ZefcError) as err:
        capacity(*query("01", 2, 1), witness_k=100)
    assert err.value.code == "degenerate_code"


# Item 8's grid: every pair c2 <= c1 <= 4 of caps with denominators up to 4.
GRID_CAPS = sorted({Fraction(p, q) for q in range(1, 5) for p in range(1, 4 * q + 1)})
GRID_PAIRS = [ChannelCaps(c1, c2) for c1 in GRID_CAPS for c2 in GRID_CAPS if c2 <= c1]


def test_case_11_converse_is_the_least_packing_uses():
    assert len(GRID_PAIRS) == 300
    eleven, above = SwitchPair(1, 1), 0
    for caps in GRID_PAIRS:
        for k in range(1, 13):
            want = packing_uses_oracle(k, caps.c1, caps.c2)
            n, wide, narrow = packing_uses(k, caps)
            assert n == want and (wide, narrow) == packing_sizes(k, caps), (caps, k)
            # The packing code's images need exactly n*(k) uses.
            code = KShotCode(k, eleven, None, None, None, wide, narrow, "packing11")
            assert wide * narrow >= 3**k and rate_account(code, caps).n == want, (caps, k)
            floor = least_converse_uses(eleven, caps, k)
            assert want >= floor, (caps, k)
            above += want > floor
    assert above > 100


def test_case_11_converse_counts_whole_labels():
    # floor(2^2.5)^2 = 25 < 27, so k = 3 at caps (1/4, 1/4) needs 11 uses, not 10.
    got = capacity(*query("11", "1/4", "1/4"), witness_k=3)
    assert least_converse_uses(SwitchPair(1, 1), ChannelCaps.of("1/4", "1/4"), 3) == 10
    assert got.converse_bound == got.achievable_witness == 3 / 11
    # A cap far past 3^k settles the count with least_uses alone.
    got = capacity(*query("11", "1e30", "1/64"), witness_k=10**4)
    assert got.converse_bound == got.achievable_witness == 10**4


def test_converse_envelope_minimum_is_k_over_capacity():
    # The case-01 envelope over t in [0, k], evaluated by the oracle, bottoms out at k / C.
    k = 5
    for caps in (CAPS21, ChannelCaps.of(3, 2)):
        low = k / capacity(SwitchPair.from_string("01"), caps).value
        c1, c2 = float(caps.c1), float(caps.c2)
        grid = [converse_envelope(k, c1, c2, k * i / 999) for i in range(1000)]
        assert low - 1e-12 <= min(grid) <= low + 0.05


def witness_gaps(case, ks):
    """Capacity minus the witness rate at each k, at caps (2,1)."""
    gaps = {}
    for k in ks:
        got = capacity(*query(case, 2, 1), witness_k=k)
        assert got.achievable_witness <= got.value + 1e-12, (case, k)
        gaps[k] = got.value - got.achievable_witness
    return gaps


def test_sandwich_split_case():
    got = capacity(*query("01", 2, 1), witness_k=100)
    assert got.achievable_witness == 50 / 31
    assert got.value - got.achievable_witness < 0.02 * got.value
    doubles = list(witness_gaps("01", [1 << j for j in range(8)]).values())
    assert all(b <= a + 1e-9 for a, b in zip(doubles, doubles[1:]))


def test_sandwich_gap_doubling_all_cases():
    for case in ("01", "11"):
        gaps = witness_gaps(case, range(1, 201))
        for k in range(1, 101):
            assert gaps[2 * k] <= gaps[k] + 1e-9, (case, k)


def test_sandwich_identity_case_flat():
    got = capacity(*query("00", 2, 1), witness_k=7)
    assert got.achievable_witness == 1.0
    assert got.value - got.achievable_witness == 0.0


def test_construct_for_case_switch_mapping():
    for case, name in (("00", "identity"), ("10", "identity-as-10"), ("01", "split01"), ("11", "packing11")):
        code = construct_for_case(SwitchPair.from_string(case), 4, CAPS21)
        assert code.name == name
        assert code.switches.as_string() == case
        rate_account(code, CAPS21)
