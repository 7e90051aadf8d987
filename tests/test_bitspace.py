"""Packing conventions, digit strings, base-3 sums and sumsets."""

import itertools
import random

import numpy as np
import pytest

from zefc.bitspace import (
    VectorSet,
    binary_to_base3_table,
    digit_strings,
    digits_of,
    pack_digits,
    sum_rows,
    sum_table,
    sumset,
    word_from_string,
    word_to_string,
)
from zefc.errors import ZefcError

import oracles


def full_set(k):
    return VectorSet.full_binary(k)


def subset_of(k, values):
    return VectorSet.of(k, 2, values)


def test_string_round_trip():
    for s in ("0", "1", "011", "1101", "00000"):
        value, k = word_from_string(s, 2)
        assert word_to_string(value, k, 2) == s
        assert k == len(s)
    assert word_to_string(*word_from_string("120", 3), 3) == "120"


def test_position_one_is_least_significant():
    assert word_from_string("011", 2) == (0 + 2 * 1 + 4 * 1, 3)
    assert word_from_string("120", 3) == (1 + 3 * 2 + 9 * 0, 3)


def test_pack_digit_round_trip():
    for radix in (2, 3, 4):
        for k in (1, 2, 3):
            for digits in itertools.product(range(radix), repeat=k):
                assert digits_of(pack_digits(digits, radix), k, radix) == digits


def test_vector_validation():
    for k in (0, 21):
        with pytest.raises(ZefcError) as err:
            VectorSet.of(k, 2, [])
        assert err.value.code == "bad_block_length"
    for text, radix in (("012", 2), ("", 2), ("1a", 2), ("013", 3)):
        with pytest.raises(ZefcError) as err:
            word_from_string(text, radix)
        assert err.value.code == "bad_digit_string"


def test_equality_requires_equal_length():
    assert word_from_string("1", 2) != word_from_string("10", 2)
    assert word_from_string("1", 2)[0] == word_from_string("10", 2)[0]
    assert VectorSet.of(2, 2, [1]) != VectorSet.of(3, 2, [1])
    assert VectorSet.of(2, 2, [1]) != VectorSet.of(2, 3, [1])


def test_add_componentwise():
    t3 = binary_to_base3_table(3)
    (x, _), (y, _) = word_from_string("011", 2), word_from_string("110", 2)
    assert word_to_string(t3[x] + t3[y], 3, 3) == "121"


def test_add_zero_embeds():
    for k in (1, 3, 5):
        t3 = binary_to_base3_table(k)
        for value in range(1 << k):
            assert digits_of(t3[0] + t3[value], k, 3) == digits_of(value, k, 2)


def test_add_length_mismatch():
    with pytest.raises(ZefcError) as err:
        sumset(VectorSet.of(2, 2, [0]), VectorSet.of(3, 2, [0]))
    assert err.value.code == "length_mismatch"


def test_add_matches_oracle_and_counts():
    k = 2
    t3 = binary_to_base3_table(k)
    sums = set()
    for xa in oracles.all_words(2, k):
        for ya in oracles.all_words(2, k):
            z = t3[pack_digits(xa, 2)] + t3[pack_digits(ya, 2)]
            assert digits_of(z, k, 3) == oracles.tuple_add(xa, ya)
            sums.add(z)
    assert len(sums) == 3 ** k


def test_base3_table_matches_digitwise_packing():
    for k in (1, 4, 7):
        table = binary_to_base3_table(k)
        for xa in oracles.all_words(2, k):
            x = sum(b << i for i, b in enumerate(xa))
            assert table[x] == sum(b * 3**i for i, b in enumerate(xa))


def test_digit_strings_match_word_to_string():
    for radix in (2, 3):
        for k in (1, 2, 5):
            strings = digit_strings(k, radix)
            assert len(strings) == radix**k
            assert all(strings[v] == word_to_string(v, k, radix) for v in range(radix**k))
    with pytest.raises(ZefcError):
        digit_strings(0, 2)


def base3_value(word):
    """Packed base-3 value of a digit tuple, position 1 least significant."""
    return sum(d * 3**i for i, d in enumerate(word))


def set_bits(value):
    return {i for i in range(value.bit_length()) if (value >> i) & 1}


def test_sum_table_matches_oracle():
    for k in (1, 2, 5):
        words = oracles.all_words(2, k)
        table = sum_table(k)
        assert table.shape == (1 << k, 1 << k)
        for x, xa in enumerate(words):
            for y, ya in enumerate(words):
                assert table[x, y] == base3_value(oracles.tuple_add(xa, ya))


def test_sum_rows_match_oracle():
    for k in range(1, 9):
        words = oracles.all_words(2, k)
        rows = list(sum_rows(k))
        assert len(rows) == 1 << k
        for y, ya in enumerate(words):
            assert rows[y].dtype == np.uint8 and rows[y].shape == (8 * -(-(3**k) // 64),)
            want = {base3_value(s) for s in oracles.raw_sumset(words, [ya])}
            assert set_bits(int.from_bytes(rows[y], "little")) == want


def test_sum_row_unions_count_the_oracle_sumset():
    rng = random.Random(5)
    for k in range(5, 9):
        words = oracles.all_words(2, k)
        masks = [int.from_bytes(row, "little") for row in sum_rows(k)]
        for _ in range(20):
            subset = rng.sample(range(1 << k), rng.randint(1, 1 << k))
            acc = 0
            for y in subset:
                acc |= masks[y]
            assert acc.bit_count() == len(oracles.raw_sumset(words, [words[y] for y in subset]))


def test_sumset_single_and_full_k1():
    assert sorted(sumset(full_set(1), subset_of(1, [0])).members) == [0, 1]
    assert sorted(sumset(full_set(1), full_set(1)).members) == [0, 1, 2]


def test_sumset_k2_pair():
    assert len(sumset(full_set(2), VectorSet.from_strings(["00", "01"]))) == 6


def test_sumset_empty_operand():
    empty = VectorSet.of(2, 2, [])
    out = sumset(full_set(2), empty)
    assert len(out) == 0 and out.radix == 3
    assert len(sumset(empty, full_set(2))) == 0


def test_sumset_radix_rules():
    with pytest.raises(ZefcError):
        sumset(VectorSet.of(1, 3, [0]), full_set(1))
    with pytest.raises(ZefcError):
        sumset(full_set(2), full_set(3))
    with pytest.raises(ZefcError) as err:
        sumset(full_set(1), VectorSet.of(1, 3, [2]))
    assert err.value.code == "unsupported_operands"


def test_sumset_matches_oracle_exhaustively_small_k():
    for k in (1, 2):
        words = oracles.all_words(2, k)
        for mask_m in range(1 << len(words)):
            m_tuples = [words[i] for i in range(len(words)) if (mask_m >> i) & 1]
            m = subset_of(k, [pack_digits(t, 2) for t in m_tuples])
            for mask_l in range(1 << len(words)):
                l_tuples = [words[i] for i in range(len(words)) if (mask_l >> i) & 1]
                l = subset_of(k, [pack_digits(t, 2) for t in l_tuples])
                got = sumset(m, l)
                want = oracles.raw_sumset(m_tuples, l_tuples)
                assert {digits_of(v, k, 3) for v in got.members} == want


def test_full_sumset_is_three_to_k():
    for k in range(1, 9):
        assert len(sumset(full_set(k), full_set(k))) == 3 ** k


def test_sumset_monotone_in_l():
    k = 2
    values = list(range(1 << k))
    m = full_set(k)
    for mask in range(1, 1 << len(values)):
        l_vals = [v for v in values if (mask >> v) & 1]
        small = sumset(m, subset_of(k, l_vals[:-1]))
        big = sumset(m, subset_of(k, l_vals))
        assert small.members <= big.members


def permute_packed(value, k, radix, perm):
    digits = digits_of(value, k, radix)
    return pack_digits(tuple(digits[p] for p in perm), radix)


def test_sumset_permutation_invariant():
    k = 3
    m_vals = [0b011, 0b101, 0b000, 0b110]
    l_vals = [0b001, 0b111]
    base = len(sumset(subset_of(k, m_vals), subset_of(k, l_vals)))
    for perm in itertools.permutations(range(k)):
        m_p = subset_of(k, [permute_packed(v, k, 2, perm) for v in m_vals])
        l_p = subset_of(k, [permute_packed(v, k, 2, perm) for v in l_vals])
        assert len(sumset(m_p, l_p)) == base


def test_sumset_size_bounds():
    k = 3
    import random

    rng = random.Random(7)
    for _ in range(50):
        m_vals = rng.sample(range(1 << k), rng.randint(1, 1 << k))
        l_vals = rng.sample(range(1 << k), rng.randint(1, 1 << k))
        size = len(sumset(subset_of(k, m_vals), subset_of(k, l_vals)))
        assert size <= len(m_vals) * len(l_vals)
        assert size <= 3 ** k


def test_vector_set_helpers():
    s = VectorSet.from_strings(["00", "01", "00"])
    assert len(s) == 2
    assert s.to_strings() == ["00", "01"]
    with pytest.raises(ZefcError):
        VectorSet.from_strings(["0", "01"])
    with pytest.raises(ZefcError):
        VectorSet.from_strings([])
    with pytest.raises(ZefcError):
        VectorSet.of(1, 5, [0])
    with pytest.raises(ZefcError):
        VectorSet.of(1, 2, [2])


def test_word_to_string_width():
    assert word_to_string(6, 3, 2) == "011"
    assert word_to_string(7, 3, 3) == "120"
