"""Q_k, chi_m, the h-function checks, and the mixed-alphabet pair minimum."""

import decimal
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zefc import coloring
from zefc.coloring import (
    MAX_AITCH_L,
    TAU,
    _chi_m_search,
    _union_counts,
    aitch,
    aitch_tau,
    chi,
    chi_m,
    mixed_min_pair_sumset,
    q_k,
    qk_lower_bound,
    verify_aitch_superadditivity,
    verify_sumset_lower_bound,
)
from zefc.errors import ZefcError
from zefc.exact import colex_prefix_value, log2_3_sign

import oracles

Q_TABLES = {
    1: {1: 2, 2: 3},
    2: {1: 4, 2: 6, 3: 8, 4: 9},
    3: {1: 8, 2: 12, 3: 16, 4: 18, 5: 22, 6: 24, 7: 26, 8: 27},
    4: {
        1: 16, 2: 24, 3: 32, 4: 36, 5: 44, 6: 48, 7: 52, 8: 54,
        9: 62, 10: 66, 11: 70, 12: 72, 13: 76, 14: 78, 15: 80, 16: 81,
    },
}

CHI_M_TABLES = {
    1: {1: 3, 2: 2},
    2: {1: 9, 2: 6, 3: 6, 4: 4},
    3: {1: 27, 2: 18, 3: 16, 4: 12, 5: 12, 6: 12, 7: 12, 8: 8},
}

EQUALITY_COUNTS = {
    1: {1: 2, 2: 1},
    2: {1: 4, 2: 4, 4: 1},
    3: {1: 8, 2: 12, 4: 6, 8: 1},
    4: {1: 16, 2: 32, 4: 24, 8: 8, 16: 1},
}


def parsed(strings):
    """Digit tuples of digit strings, position 1 leftmost."""
    return [tuple(int(ch) for ch in text) for text in strings]


def test_chi_examples():
    assert chi(1, [0, 1], [0, 1]) == 3
    assert chi(2, range(4), []) == 0
    assert chi(2, range(4), [0b00, 0b11]) == 7


def test_chi_matches_materialized_graph_oracle():
    for k in (1, 2):
        words = oracles.all_words(2, k)
        subsets = [[0], [0, 1], [1, 2] if k == 2 else [0, 1], list(range(1 << k))]
        for m in subsets:
            for l in subsets:
                want = oracles.conflict_chromatic([words[i] for i in m], [words[i] for i in l])
                assert chi(k, m, l) == want


def test_qk_frozen_tables():
    for k, table in Q_TABLES.items():
        got = {l: q_k(k, l) for l in range((1 << k) + 1)}
        assert got[0].value == 0
        for l, want in table.items():
            assert got[l].value == want
            assert got[l].exact
            assert got[l].lower <= want <= got[l].upper


def test_qk_matches_bruteforce_oracle():
    for k in (1, 2, 3):
        for l in range(1, (1 << k) + 1):
            want, _ = oracles.qk_bruteforce(k, l)
            assert q_k(k, l).value == want
    assert q_k(4, 2).value == oracles.qk_bruteforce(4, 2)[0]


def test_qk_witness_is_the_bruteforce_first_minimum():
    cases = [(k, l) for k in (1, 2, 3) for l in range((1 << k) + 1)]
    cases += [(4, l) for l in (2, 3, 13, 14, 15)]
    for k, l in cases:
        _, want = oracles.qk_bruteforce(k, l)
        assert q_k(k, l).witness == ["".join(map(str, word)) for word in want], (k, l)


PROOF_K = 11


def _qk_proof_failures(g, top):
    """The steps of q_k's proof that fail on g, with g[l] = 2^K * F(l) for l <= 2^K.

    All in integers, each identity times 2^K (2^(K+1) where it halves): F(0) = 0,
    F(1) = 1, the low-digit recursion and monotonicity of F over g, then
    D(a, b) >= 0 and its parity identities for every a >= b >= 0 with a + b <= top.
    """
    half = (len(g) - 1) // 2
    failed = [] if g[:2] == [0, 2 * half] else [("base",)]
    for l in range(half + 1):
        if 2 * g[2 * l] != 3 * g[l]:
            failed.append(("even", l))
        if l < half and 2 * g[2 * l + 1] != g[l] + 2 * g[l + 1]:
            failed.append(("odd", l))
    failed += [("monotone", l) for l in range(2 * half) if g[l + 1] < g[l]]

    def d(a, b):
        return 2 * g[a] + g[b] - 2 * g[a + b]

    for a in range(top + 1):
        for b in range(min(a, top - a) + 1):
            x, y = a // 2, b // 2
            if b == 0 or (a % 2 and b % 2 and x == y):
                twice = 0
            elif a % 2 == 0 and b % 2 == 0:
                twice = 3 * d(x, y)
            elif b % 2 == 0:
                twice = 2 * d(x + 1, y) + d(x, y)
            elif a % 2 == 0:
                twice = 2 * d(x, y + 1) + d(x, y)
            else:
                twice = d(x + 1, y) + d(x, y + 1) + d(x + 1, y + 1)
                twice += 2 * (g[x + y + 2] - g[x + y + 1])
            if 2 * d(a, b) != twice:
                failed.append(("identity", a, b))
            if d(a, b) < 0:
                failed.append(("D", a, b))
    return failed


def test_qk_proof_holds_in_integers():
    g = [colex_prefix_value(PROOF_K, l) for l in range((1 << PROOF_K) + 1)]
    for k in range(PROOF_K + 1):
        # The k-free form: C_k(l) * 2^(K - k) = C_K(l) for l <= 2^k.
        scaled = [colex_prefix_value(k, l) << (PROOF_K - k) for l in range((1 << k) + 1)]
        assert scaled == g[: len(scaled)], k
    assert _qk_proof_failures(g, 512) == []


def test_qk_proof_check_fails_on_a_mutated_recursion():
    # Mutation: F(2l) = (3/2)*F(l) + 1 at l = 37 alone.
    g = [colex_prefix_value(PROOF_K, l) for l in range((1 << PROOF_K) + 1)]
    g[74] += 1 << PROOF_K
    assert ("even", 37) in _qk_proof_failures(g, 512)


def test_exact_qk_builds_no_union_table(monkeypatch):
    def refuse(k):
        raise AssertionError(f"sum masks built at k = {k}")

    monkeypatch.setattr(coloring, "_union_counts", refuse)
    monkeypatch.setattr(coloring, "sum_rows", refuse)
    assert [q_k(4, l).value for l in range(1, 17)] == list(Q_TABLES[4].values())
    assert q_k(4, 7).value == Q_TABLES[4][7]


def test_prefix_certificate_matches_oracle():
    # The proof's slice bound, checked split by split with raw sumsets: no split
    # of any l <= 2^j beats the word prefix at any j <= 10.
    assert oracles.prefix_certificate(10) == []


class _NoNumpy:
    """Stands in for numpy: reading any attribute fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} read")


def test_qk_and_gamma_pair_need_no_numpy(monkeypatch):
    monkeypatch.setattr(coloring, "np", _NoNumpy())
    assert [q_k(4, l).value for l in range(1, 17)] == list(Q_TABLES[4].values())
    assert q_k(4, 7).value == Q_TABLES[4][7]
    values = [mixed_min_pair_sumset(k).value for k in range(1, 9)]
    assert values == [3 * 2 ** (k - 1) for k in range(1, 9)]


def test_qk_witness_achieves_value():
    for k in (2, 3):
        for l in (1, 2, 3):
            res = q_k(k, l)
            witness = set(parsed(res.witness))
            assert len(witness) == l
            assert len(oracles.raw_sumset(oracles.all_words(2, k), witness)) == res.value


def test_qk_monotone_in_l():
    for k in (1, 2, 3, 4):
        values = [q_k(k, l).value for l in range((1 << k) + 1)]
        assert values == sorted(values)


def test_qk_full_subset_is_power():
    for k in (1, 2, 3, 4):
        assert q_k(k, 1 << k).value == 3 ** k


def test_qk_bracket_matches_exact_small_k():
    for k in (1, 2, 3, 4):
        for l in range(1, (1 << k) + 1):
            res = q_k(k, l, bracket=True)
            assert not res.exact
            assert res.upper == q_k(k, l).value
            assert res.lower <= res.upper
            assert res.value == res.upper


def test_qk_bracket_large_k():
    res = q_k(9, 7, bracket=True)
    assert res.lower <= res.upper
    assert res.witness is None


def test_qk_exact_mode_refusal():
    with pytest.raises(ZefcError) as err:
        q_k(9, 7)
    assert err.value.code == "exact_mode_limit"
    assert "use --bracket" in err.value.message
    with pytest.raises(ZefcError):
        q_k(2, 5)
    with pytest.raises(ZefcError):
        q_k(2, -1)


def test_colex_prefix_matches_raw_sumsets():
    # The certificate proves Q_k >= C_k, which a C_k below the prefix's own
    # sumset size also passes at k; this check compares C_k with that size.
    for k in range(1, 11):
        want = oracles.prefix_sizes(k)
        assert [colex_prefix_value(k, l) for l in range((1 << k) + 1)] == want, k


def test_qk_lower_bound_power_of_two_exact():
    assert qk_lower_bound(3, 4) == 9 * 2
    assert qk_lower_bound(4, 16) == 81
    assert qk_lower_bound(2, 3) == 8


def test_chi_m_frozen_tables():
    for k, table in CHI_M_TABLES.items():
        got = {m: chi_m(k, m) for m in range(1, (1 << k) + 1)}
        assert {m: r.value for m, r in got.items()} == table


def test_chi_m_matches_bruteforce_oracle():
    for k in (1, 2, 3):
        want = oracles.chim_bruteforce(k)
        got = {m: chi_m(k, m) for m in range(1, (1 << k) + 1)}
        assert {m: r.value for m, r in got.items()} == want


def test_chi_m_witness_is_partition_achieving_value():
    for k in (1, 2, 3):
        for m in (1, 2, 1 << k):
            res = chi_m(k, m)
            blocks = [set(parsed(block)) for block in res.witness]
            assert len(blocks) == m
            seen = set()
            for block in blocks:
                assert not (block & seen)
                seen |= block
            assert len(seen) == 1 << k
            words = oracles.all_words(2, k)
            worst = max(len(oracles.raw_sumset(words, b)) for b in blocks)
            assert worst == res.value


def test_chi_m_witness_is_the_first_minimum_in_growth_order():
    for k in (1, 2, 3):
        words = oracles.all_words(2, k)
        values = {m: chi_m(k, m).value for m in range(1, (1 << k) + 1)}
        sizes, firsts = {}, {}
        for part in oracles.growth_partitions(words):
            for block in map(tuple, part):
                if block not in sizes:
                    sizes[block] = len(oracles.raw_sumset(words, block))
            if max(sizes[tuple(b)] for b in part) == values[len(part)]:
                firsts.setdefault(len(part), part)
        for m in range(1, (1 << k) + 1):
            want = [["".join(map(str, w)) for w in block] for block in firsts[m]]
            assert [list(block) for block in chi_m(k, m).witness] == want


def test_chi_m_search_reaches_the_prefix_bound_beyond_the_cli_limit():
    # k = 5, m = 11 is the hardest case, at about 2.2e5 search nodes.
    for k in (4, 5):
        words = oracles.all_words(2, k)
        for m in range(1, (1 << k) + 1):
            res = _chi_m_search(k, m)
            assert res.value == colex_prefix_value(k, -(-(1 << k) // m)), (k, m)
            blocks = [parsed(block) for block in res.witness]
            assert len(blocks) == m and all(blocks)
            assert sorted(w for block in blocks for w in block) == sorted(words)
            worst = max(len(oracles.raw_sumset(words, block)) for block in blocks)
            assert worst == res.value, (k, m)


def test_chi_m_pigeonhole_lower_bound():
    for k in (1, 2, 3):
        size = 1 << k
        for m in range(1, size + 1):
            need = -(-size // m)
            assert chi_m(k, m).value >= q_k(k, need).value


def test_chi_m_errors():
    with pytest.raises(ZefcError) as err:
        chi_m(4, 1)
    assert err.value.code == "k_too_large"
    with pytest.raises(ZefcError) as err:
        chi_m(2, 5)
    assert err.value.code == "bad_m"
    with pytest.raises(ZefcError):
        chi_m(2, 0)


def test_aitch_values():
    assert aitch(0) == 0.0
    assert aitch(1) == 1.0
    assert abs(aitch(2) - 1.5) < 1e-9
    assert abs(aitch(4) - 2.25) < 1e-9
    assert aitch_tau(1.0, 17) == 17
    with pytest.raises(ZefcError):
        aitch(-1)


def test_aitch_superadditivity_holds():
    report = verify_aitch_superadditivity(256)
    assert report.violations == 0 and report.violation_examples == ()
    assert report.tau == TAU
    assert report.checked == sum(l // 2 + 1 for l in range(1, 257))


def test_aitch_split_count_matches_the_sum_at_every_l_max():
    # checked is read off a closed form; l has the l // 2 + 1 splits la >= lb >= 0.
    splits = 0
    for l_max in range(1, MAX_AITCH_L + 1):
        splits += l_max // 2 + 1
        assert verify_aitch_superadditivity(l_max).checked == splits, l_max


@pytest.mark.parametrize("l_max", [1, 2, 3, 64, 300, 1024])
def test_aitch_tau_maximality_is_the_oracles_first_violation(l_max):
    want = None
    for l, la, lb, x, y in oracles.aitch_violations(TAU + 0.01, l_max)[:1]:
        want = {"tau": TAU + 0.01, "l": l, "split": [la, lb], "lhs": x, "rhs": y}
    assert verify_aitch_superadditivity(l_max).tau_maximality == want


def test_aitch_refuses_large_l_max():
    with pytest.raises(ZefcError) as err:
        verify_aitch_superadditivity(MAX_AITCH_L + 1)
    assert err.value.code == "l_too_large"


def test_aitch_tau_maximality_counterexample():
    report = verify_aitch_superadditivity(64)
    assert report.tau_maximality is not None
    assert report.tau_maximality["l"] == 2
    assert report.tau_maximality["split"] == [1, 1]


def test_sumset_lower_bound_exhaustive():
    report = verify_sumset_lower_bound(4)
    assert len(report.entries) == 4
    for entry in report.entries:
        assert entry["mode"] == "exhaustive"
        assert entry["violations"] == []
        assert entry["equality_counts"] == EQUALITY_COUNTS[entry["k"]]
    assert report.entries[3]["subsets_checked"] == (1 << 16) - 1


def test_sumset_lower_bound_matches_oracle():
    for k in (1, 2, 3):
        entry = verify_sumset_lower_bound(k).entries[k - 1]
        violations, equalities = oracles.sumset_bound_oracle(k)
        assert entry["violations"] == violations
        assert entry["equality_counts"] == {l: len(s) for l, s in equalities.items()}
        assert entry["subsets_checked"] == (1 << (1 << k)) - 1


def test_union_counts_match_raw_sumset_oracle():
    # Every subset mask at k <= 4, counted with no numpy popcount.
    for k in (1, 2, 3, 4):
        counts, ells = _union_counts(k)
        sizes, lengths = oracles.subset_union_sizes(k)
        assert counts.dtype == np.int16 and ells.dtype == np.uint8
        assert counts.tolist() == sizes and ells.tolist() == lengths


def _inductive_entries_match(found, k_max):
    report = verify_sumset_lower_bound(k_max)
    assert [e["k"] for e in report.entries[4:]] == list(range(5, k_max + 1))
    for entry in report.entries[4:]:
        certificate = entry["certificate"]
        assert certificate["l_max"] == 1 << entry["k"]
        got = (entry["violations"], certificate["margin"], certificate["split"])
        assert got == found[entry["k"]]


@pytest.fixture(scope="module")
def split_scan():
    """The oracle's scan of every split of every l <= 2^12 at tau, per k."""
    return oracles.sumset_certificate(12)


def test_sumset_inductive_entries_match_scalar_oracle(split_scan):
    # The closed-form certificate's position is not proved; this scan is its check.
    for k_max in range(5, 13):
        _inductive_entries_match(split_scan, k_max)


def test_aitch_report_matches_the_oracle_scan_at_its_largest_l(split_scan):
    # The report is the concavity lemma's; in floats, no split of any accepted l fails.
    assert 1 << 12 == MAX_AITCH_L
    report = verify_aitch_superadditivity(MAX_AITCH_L)
    assert split_scan[12][0] == []
    assert (report.violations, report.violation_examples) == (0, ())


def test_sumset_certificate_oracle_keeps_scan_order():
    # Above tau = log2(3) - 1 splits fail, in many columns lb per entry.
    found = oracles.sumset_certificate(7, tau=0.6)
    for k in (5, 6, 7):
        want = [[la, lb] for l, la, lb, _, _ in oracles.aitch_violations(0.6, 1 << k)]
        assert found[k][0] == want
    assert len(found[7][0]) > 100 and len({lb for _, lb in found[7][0]}) > 1


def test_sumset_lower_bound_refuses_large_k_max():
    with pytest.raises(ZefcError) as err:
        verify_sumset_lower_bound(13)
    assert err.value.code == "k_too_large"


def test_sumset_lower_bound_refusal_gives_the_check_range():
    # Nothing is scanned per request: the limit is where the tests stop checking the
    # certificate against the oracle's scan, and where its float margin cancels.
    with pytest.raises(ZefcError) as err:
        verify_sumset_lower_bound(coloring.MAX_SUMSET_BOUND_K + 1)
    assert err.value.code == "k_too_large"
    assert coloring.MAX_SUMSET_BOUND_K == 12
    assert "k = 12" in err.value.message and "scan" not in err.value.message


def test_sumset_lower_bound_inductive_mode():
    report = verify_sumset_lower_bound(8)
    margins = []
    for entry in report.entries[4:]:
        assert entry["mode"] == "inductive"
        assert entry["subsets_checked"] == 0
        assert entry["violations"] == []
        certificate = entry["certificate"]
        la, lb = certificate["split"]
        assert certificate["l_max"] == 1 << entry["k"]
        assert 1 <= lb < la and la + lb <= certificate["l_max"]
        margins.append(certificate["margin"])
    assert [e["k"] for e in report.entries] == list(range(1, 9))
    assert all(m > 0 for m in margins) and margins == sorted(margins, reverse=True)


def test_slice_identity():
    for k in (1, 2, 3):
        assert oracles.slice_identity_holds(k)


def _decimal_gap(la, lb, h):
    """2*h(la) + h(lb) - 2*h(la + lb) in the Decimal arithmetic of h."""
    return 2 * h(la) + h(lb) - 2 * h(la + lb)


def test_sumset_certificates_hold_in_exact_arithmetic():
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tau = Decimal(3).ln() / Decimal(2).ln() - 1
        table = [Decimal(0)] + [Decimal(l) ** tau for l in range(1, 257)]

        def h(l):
            return table[l] if l < len(table) else Decimal(l) ** tau

        splits = [(l - lb, lb) for l in range(3, 257) for lb in range(1, (l + 1) // 2)]
        for entry in verify_sumset_lower_bound(12).entries[4:]:
            certificate = entry["certificate"]
            gap = _decimal_gap(*certificate["split"], h)
            assert gap > 0 and abs(gap - Decimal(certificate["margin"])) < Decimal("1e-12")
            if certificate["l_max"] <= 256:
                within = [s for s in splits if sum(s) <= certificate["l_max"]]
                least = min(within, key=lambda s: _decimal_gap(*s, h))
                assert list(least) == certificate["split"]


def _lemma_premises_failing(tau):
    """The concavity lemma's premises that fail at tau, in Decimal arithmetic.

    g(t) = 2 + t^tau - 2*(1 + t)^tau must vanish at 1, the threshold below which
    g'' < 0 must lie above 1, and G(la, lb) = 2*h(la) + h(lb) - 2*h(la + lb) must
    rise in la for fixed lb (sampled at lb <= 32, la <= 128).
    """
    table = [Decimal(0)] + [Decimal(l) ** tau for l in range(1, 162)]

    def gap(la, lb):
        return 2 * table[la] + table[lb] - 2 * table[la + lb]

    failing = []
    if abs(3 - 2 * Decimal(2) ** tau) > Decimal("1e-45"):
        failing.append("g(1) = 0")
    if not 1 / (Decimal(2) ** (1 / (2 - tau)) - 1) > 1:
        failing.append("concave on [0, 1]")
    if any(gap(la + 1, lb) <= gap(la, lb) for lb in range(1, 33) for la in range(lb, 129)):
        failing.append("G rises in la")
    return failing


def test_concavity_lemma_premises_hold():
    assert log2_3_sign(-1, 1) > 0 > log2_3_sign(-2, 1)  # 0 < tau < 1
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tau = Decimal(3).ln() / Decimal(2).ln() - 1
        assert _lemma_premises_failing(tau) == []
        # The lemma's conclusion, g > 0 on (0, 1), at sampled t.
        g = [2 + t**tau - 2 * (1 + t) ** tau for t in (Decimal(i) / 64 for i in range(1, 64))]
        assert min(g) > 0


def test_concavity_lemma_premises_fail_above_tau():
    # At tau + 0.01 the split [1, 1] fails: g(1) < 0, and only that premise breaks.
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tau = Decimal(3).ln() / Decimal(2).ln() - 1 + Decimal("0.01")
        assert 3 - 2 * Decimal(2) ** tau < 0
        assert _lemma_premises_failing(tau) == ["g(1) = 0"]


def test_mixed_pair_values():
    for k in range(1, 9):
        res = mixed_min_pair_sumset(k)
        assert res.value == 3 * 2 ** (k - 1)
        # Words 0 and 1 already reach the minimum, and no pair comes first in packed order.
        assert res.witness == ("0" * k, "1" + "0" * (k - 1))
        assert res.witness[0] != res.witness[1]
        pair = [tuple(map(int, s)) for s in res.witness]
        assert len(oracles.raw_sumset(oracles.all_words(2, k), pair)) == res.value


def test_mixed_pair_matches_bruteforce():
    # all_words lists words in packed order, so both return the first minimum pair.
    for k in (1, 2, 3, 4):
        want, pair = oracles.mixed_min_pair_bruteforce(k)
        res = mixed_min_pair_sumset(k)
        assert res.value == want
        assert res.witness == tuple("".join(map(str, word)) for word in pair)


def test_mixed_pair_matches_kronecker_scan():
    for k in range(1, 9):
        res = mixed_min_pair_sumset(k)
        assert (res.value, res.witness) == oracles.mixed_min_pair_scan(k), k


K8_PAIR = mixed_min_pair_sumset(8)
BINARY8, TERNARY8 = oracles.all_words(2, 8), oracles.all_words(3, 8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3**8 - 1), min_size=2, max_size=2, unique=True))
def test_mixed_pair_minimum_is_never_beaten_at_k8(pair):
    size = len(oracles.raw_sumset(BINARY8, [TERNARY8[y] for y in pair]))
    assert size >= K8_PAIR.value


def test_mixed_pair_limit():
    with pytest.raises(ZefcError) as err:
        mixed_min_pair_sumset(9)
    assert err.value.code == "k_too_large"
