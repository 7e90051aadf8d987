"""Vector types, packing conventions, sumsets, and the source-model validator."""

import itertools

import pytest

from zefc.bitspace import (
    BitVector,
    SourceModel,
    TernaryVector,
    VectorSet,
    add,
    binary_to_base3_table,
    digit_strings,
    digits_of,
    pack_digits,
    sumset,
    validate_source_model,
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
        v = BitVector.from_string(s)
        assert v.to_string() == s
        assert v.k == len(s)
    assert TernaryVector.from_string("120").to_string() == "120"


def test_position_one_is_least_significant():
    v = BitVector.from_string("011")
    assert v.value == 0 + 2 * 1 + 4 * 1
    t = TernaryVector.from_string("120")
    assert t.value == 1 + 3 * 2 + 9 * 0


def test_pack_digit_round_trip():
    for radix in (2, 3, 4):
        for k in (1, 2, 3):
            for digits in itertools.product(range(radix), repeat=k):
                assert digits_of(pack_digits(digits, radix), k, radix) == digits


def test_vector_validation():
    with pytest.raises(ZefcError):
        BitVector(4, 2)
    with pytest.raises(ZefcError):
        BitVector(0, 0)
    with pytest.raises(ZefcError):
        BitVector(0, 21)
    with pytest.raises(ZefcError):
        TernaryVector(9, 2)
    with pytest.raises(ZefcError):
        BitVector.from_bits((0, 2))
    with pytest.raises(ZefcError):
        word_from_string("012", 2)
    with pytest.raises(ZefcError):
        word_from_string("", 2)


def test_equality_requires_equal_length():
    assert BitVector(1, 2) != BitVector(1, 3)
    assert BitVector(1, 2) == BitVector(1, 2)
    assert BitVector(1, 2) != TernaryVector(1, 2)


def test_add_componentwise():
    x = BitVector.from_string("011")
    y = BitVector.from_string("110")
    assert add(x, y).to_string() == "121"


def test_add_zero_embeds():
    for k in (1, 3, 5):
        zero = BitVector(0, k)
        for value in range(1 << k):
            y = BitVector(value, k)
            assert add(zero, y).trits == y.bits


def test_add_length_mismatch():
    with pytest.raises(ZefcError) as err:
        add(BitVector(0, 2), BitVector(0, 3))
    assert err.value.code == "length_mismatch"


def test_add_matches_oracle_and_counts():
    k = 2
    words = oracles.all_words(2, k)
    sums = set()
    for xa in words:
        for ya in words:
            x = BitVector.from_bits(xa)
            y = BitVector.from_bits(ya)
            z = add(x, y)
            assert z.trits == oracles.tuple_add(xa, ya)
            sums.add(z.value)
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
    mixed = sumset(full_set(1), VectorSet.of(1, 3, [2]))
    assert mixed.radix == 4 and sorted(mixed.members) == [2, 3]


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


def test_sumset_mixed_matches_oracle():
    k = 2
    binary = oracles.all_words(2, k)
    ternary = oracles.all_words(3, k)
    m = full_set(k)
    for pair in itertools.combinations(ternary, 2):
        l = VectorSet.of(k, 3, [pack_digits(t, 3) for t in pair])
        got = sumset(m, l)
        want = oracles.raw_sumset(binary, pair)
        assert {digits_of(v, k, 4) for v in got.members} == want


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


def test_source_model_validation():
    uniform = SourceModel(((0.25, 0.25), (0.25, 0.25)))
    assert validate_source_model(uniform)
    with pytest.raises(ZefcError) as err:
        validate_source_model(SourceModel(((0.5, 0.5), (0.0, 0.0))))
    assert err.value.code == "nonpositive_entry"
    with pytest.raises(ZefcError) as err:
        validate_source_model(SourceModel(((0.5, 0.5), (0.5, 0.5))))
    assert err.value.code == "not_normalized"
    with pytest.raises(ZefcError):
        validate_source_model(SourceModel((0.25, 0.25, 0.25)))


def test_sum_entropy():
    uniform = SourceModel(((0.25, 0.25), (0.25, 0.25)))
    assert abs(uniform.sum_entropy() - 1.5) < 1e-12
    skewed = SourceModel(((0.97, 0.01), (0.01, 0.01)))
    assert 0 < skewed.sum_entropy() < 1.5


def test_word_to_string_width():
    assert word_to_string(6, 3, 2) == "011"
    assert word_to_string(7, 3, 3) == "120"
