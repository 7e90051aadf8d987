"""Packing conventions, digit strings, base-3 sums and sumsets."""

import itertools
import random

import numpy as np
import pytest

from zefc.bitspace import (
    binary_to_base3_table,
    digit_strings,
    digits_of,
    sum_rows,
    sum_table,
    sumset,
    word_to_string,
)
from zefc.errors import ZefcError

import oracles


def packed(word, radix=2):
    """Packed value of a digit tuple, position 1 least significant."""
    return sum(d * radix**i for i, d in enumerate(word))


def parsed(text):
    """The digit tuple of a digit string, position 1 leftmost."""
    return tuple(int(ch) for ch in text)


def sumset_words(k, m, l):
    """sumset(k, m, l) as a set of ternary digit tuples."""
    return {digits_of(int(v), k, 3) for v in sumset(k, m, l)}


def test_string_round_trip():
    for s in ("0", "1", "011", "1101", "00000"):
        assert word_to_string(packed(parsed(s)), len(s), 2) == s
    assert word_to_string(packed(parsed("120"), 3), 3, 3) == "120"


def test_position_one_is_least_significant():
    assert word_to_string(0 + 2 * 1 + 4 * 1, 3, 2) == "011"
    assert word_to_string(1 + 3 * 2 + 9 * 0, 3, 3) == "120"
    assert digits_of(0 + 2 * 1 + 4 * 1, 3, 2) == (0, 1, 1)


def test_pack_digit_round_trip():
    for radix in (2, 3, 4):
        for k in (1, 2, 3):
            for digits in itertools.product(range(radix), repeat=k):
                assert digits_of(packed(digits, radix), k, radix) == digits


def test_vector_validation():
    for k in (-1, 21):
        with pytest.raises(ZefcError) as err:
            binary_to_base3_table(k)
        assert err.value.code == "bad_block_length"
    for k in (0, 21):
        with pytest.raises(ZefcError) as err:
            digit_strings(k, 2)
        assert err.value.code == "bad_block_length"


def test_equality_requires_equal_length():
    assert word_to_string(1, 1, 2) != word_to_string(1, 2, 2)
    assert word_to_string(1, 1, 2) + "0" == word_to_string(1, 2, 2)
    assert len(sumset(1, [1], [1])) == len(sumset(2, [1], [1])) == 1
    assert digits_of(int(sumset(2, [1], [1])[0]), 2, 3) == (2, 0)


def test_add_componentwise():
    t3 = binary_to_base3_table(3)
    x, y = packed(parsed("011")), packed(parsed("110"))
    assert word_to_string(t3[x] + t3[y], 3, 3) == "121"


def test_add_zero_embeds():
    for k in (1, 3, 5):
        t3 = binary_to_base3_table(k)
        for value in range(1 << k):
            assert digits_of(t3[0] + t3[value], k, 3) == digits_of(value, k, 2)


def test_add_matches_oracle_and_counts():
    k = 2
    t3 = binary_to_base3_table(k)
    sums = set()
    for xa in oracles.all_words(2, k):
        for ya in oracles.all_words(2, k):
            z = int(t3[packed(xa)] + t3[packed(ya)])
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


def set_bits(value):
    return {i for i in range(value.bit_length()) if (value >> i) & 1}


def test_sum_table_matches_oracle():
    for k in (1, 2, 5):
        words = oracles.all_words(2, k)
        table = sum_table(k)
        assert table.shape == (1 << k, 1 << k)
        for x, xa in enumerate(words):
            for y, ya in enumerate(words):
                assert table[x, y] == packed(oracles.tuple_add(xa, ya), 3)


def test_sum_rows_match_oracle():
    for k in range(1, 9):
        words = oracles.all_words(2, k)
        rows = list(sum_rows(k))
        assert len(rows) == 1 << k
        for y, ya in enumerate(words):
            assert rows[y].dtype == np.uint8 and rows[y].shape == (8 * -(-(3**k) // 64),)
            want = {packed(s, 3) for s in oracles.raw_sumset(words, [ya])}
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


def test_base3_table_is_read_only_int64():
    table = binary_to_base3_table(3)
    assert table.dtype == np.int64 and not table.flags.writeable
    with pytest.raises(ValueError):
        table[1] = 0
    assert binary_to_base3_table(3) is table and table[1] == 1


def test_base3_table_of_the_empty_word():
    assert binary_to_base3_table(0).tolist() == [0]


def test_sumset_single_and_full_k1():
    assert sumset(1, [0, 1], [0]).tolist() == [0, 1]
    assert sumset(1, [0, 1], [0, 1]).tolist() == [0, 1, 2]


def test_sumset_k2_pair():
    assert len(sumset(2, range(4), [packed(parsed("00")), packed(parsed("01"))])) == 6


def test_sumset_empty_operand():
    assert len(sumset(2, range(4), [])) == 0
    assert len(sumset(2, [], range(4))) == 0


def test_sumset_refuses_words_outside_k_bits():
    for m, l in (([-1], [0]), ([0], [-1]), ([4], [0]), ([0, 1], [2, 4]), ([1 << 70], [0])):
        with pytest.raises(ZefcError) as err:
            sumset(2, m, l)
        assert err.value.code == "bad_value"


def test_sumset_matches_oracle_exhaustively_small_k():
    for k in (1, 2):
        words = oracles.all_words(2, k)
        for mask_m in range(1 << len(words)):
            m = [i for i in range(len(words)) if (mask_m >> i) & 1]
            for mask_l in range(1 << len(words)):
                l = [i for i in range(len(words)) if (mask_l >> i) & 1]
                want = oracles.raw_sumset([words[i] for i in m], [words[i] for i in l])
                assert sumset_words(k, m, l) == want


def test_sumset_matches_oracle_on_seeded_subsets():
    rng = random.Random(3)
    for k in range(3, 9):
        words = oracles.all_words(2, k)
        for _ in range(10):
            m = rng.sample(range(1 << k), rng.randint(0, min(1 << k, 40)))
            l = rng.sample(range(1 << k), rng.randint(0, min(1 << k, 40)))
            want = oracles.raw_sumset([words[i] for i in m], [words[i] for i in l])
            assert sumset_words(k, m, l) == want


def test_full_sumset_is_three_to_k():
    for k in range(1, 9):
        assert len(sumset(k, range(1 << k), range(1 << k))) == 3 ** k


def test_sumset_monotone_in_l():
    k = 2
    values = list(range(1 << k))
    for mask in range(1, 1 << len(values)):
        l_vals = [v for v in values if (mask >> v) & 1]
        small = set(sumset(k, values, l_vals[:-1]).tolist())
        big = set(sumset(k, values, l_vals).tolist())
        assert small <= big


def permute_packed(value, k, radix, perm):
    digits = digits_of(value, k, radix)
    return packed(tuple(digits[p] for p in perm), radix)


def test_sumset_permutation_invariant():
    k = 3
    m_vals = [0b011, 0b101, 0b000, 0b110]
    l_vals = [0b001, 0b111]
    base = len(sumset(k, m_vals, l_vals))
    for perm in itertools.permutations(range(k)):
        m_p = [permute_packed(v, k, 2, perm) for v in m_vals]
        l_p = [permute_packed(v, k, 2, perm) for v in l_vals]
        assert len(sumset(k, m_p, l_p)) == base


def test_sumset_size_bounds():
    k = 3
    rng = random.Random(7)
    for _ in range(50):
        m_vals = rng.sample(range(1 << k), rng.randint(1, 1 << k))
        l_vals = rng.sample(range(1 << k), rng.randint(1, 1 << k))
        size = len(sumset(k, m_vals, l_vals))
        assert size <= len(m_vals) * len(l_vals)
        assert size <= 3 ** k


def test_word_to_string_width():
    assert word_to_string(6, 3, 2) == "011"
    assert word_to_string(7, 3, 3) == "120"
