"""Network family, cut bounds, and code transforms against the raw-definition oracles."""

import itertools
import math
import types

import numpy as np
import pytest

from oracles import (
    class_count_oracle,
    classify,
    first_seen_tuples,
    first_uncomputable_table,
    guang_bound_oracle,
    guang_state_scan,
    net_edges,
    network_admissible_oracle,
    state_class_count,
)
from zefc.codec import (
    ChannelCaps,
    SwitchPair,
    build_packing_code_11,
    build_split_code_01,
    check_admissible,
    rate_account,
)
from zefc.errors import ZefcError
from zefc.exact import cutset_bound_formula
from zefc.nfc import (
    _KEY_ROWS,
    LAYOUT,
    MAX_NETWORK_EDGES,
    SINK,
    Network,
    _bundle_ids,
    _least_ratio,
    _state_count,
    _tuple_ids,
    build_network,
    check_network_admissible,
    classify_cut,
    guang_bound,
    inverse_transform,
    make_network_code,
    n_cf,
    nontightness_report,
    transform_code,
)

CAPS21 = ChannelCaps.of("2", "1")
CAPS11 = ChannelCaps.of("1", "1")

# Enumerated bound, capacity, and gap for every integer cap pair with c1+c2 <= 7.
BOUND_TABLE = {
    (1, 1): (1.0, 1.0, 0.0),
    (2, 1): (1.8927892607143724, 1.6309297535714575, 0.26185950714291484),
    (2, 2): (2.0, 2.0, 0.0),
    (3, 1): (2.52371901428583, 2.261859507142915, 0.26185950714291506),
    (3, 2): (3.0, 2.6309297535714578, 0.36907024642854225),
    (3, 3): (3.0, 3.0, 0.0),
    (4, 1): (3.1546487678572874, 2.8927892607143724, 0.26185950714291506),
    (4, 2): (3.7855785214287447, 3.261859507142915, 0.5237190142858297),
    (4, 3): (4.0, 3.6309297535714578, 0.36907024642854225),
    (5, 1): (3.7855785214287447, 3.52371901428583, 0.2618595071429146),
    (5, 2): (4.4165082750002025, 3.8927892607143724, 0.5237190142858301),
    (6, 1): (4.4165082750002025, 4.154648767857287, 0.2618595071429155),
}

# Bound value, witness cut, its class count and the number of cut states scored,
# for every c1 >= c2 >= 1 with c1 + c2 <= 14 and at (100,37), (400,400) and (499,4),
# as recorded from the edge-object network that the size-only one replaced. The
# witness is each bundle's count of leading edges; `_witness_ids` spells it out.
# Networks up to 20 edges break ties by edge order, larger ones by per-bundle
# counts, so (5,3) reports e1..e5 where d1..d5 ties with it. The `nfc` report
# prints value, witness and class count; perfbench reads cuts_seen.
GUANG_TABLE = {
    (1, 1): (1.0, (1, 0, 0, 0, 0), 2, 27),
    (2, 1): (1.8927892607143724, (0, 0, 0, 2, 1), 3, 106),
    (3, 1): (2.52371901428583, (0, 0, 0, 3, 1), 3, 106),
    (2, 2): (2.0, (2, 0, 0, 0, 0), 2, 155),
    (4, 1): (3.1546487678572874, (0, 0, 0, 4, 1), 3, 106),
    (3, 2): (3.0, (3, 0, 0, 0, 0), 2, 155),
    (5, 1): (3.7855785214287447, (0, 0, 0, 5, 1), 3, 106),
    (4, 2): (3.7855785214287447, (0, 0, 0, 4, 2), 3, 155),
    (3, 3): (3.0, (3, 0, 0, 0, 0), 2, 155),
    (6, 1): (4.4165082750002025, (0, 0, 0, 6, 1), 3, 106),
    (5, 2): (4.4165082750002025, (0, 0, 0, 5, 2), 3, 155),
    (4, 3): (4.0, (4, 0, 0, 0, 0), 2, 155),
    (7, 1): (5.04743802857166, (0, 0, 0, 7, 1), 3, 106),
    (6, 2): (5.04743802857166, (0, 0, 0, 6, 2), 3, 155),
    (5, 3): (5.0, (0, 0, 0, 5, 0), 2, 155),
    (4, 4): (4.0, (4, 0, 0, 0, 0), 2, 155),
    (8, 1): (5.678367782143117, (0, 0, 0, 8, 1), 3, 106),
    (7, 2): (5.678367782143117, (0, 0, 0, 7, 2), 3, 155),
    (6, 3): (5.678367782143117, (0, 0, 0, 6, 3), 3, 155),
    (5, 4): (5.0, (0, 0, 0, 5, 0), 2, 155),
    (9, 1): (6.309297535714575, (0, 0, 0, 9, 1), 3, 106),
    (8, 2): (6.309297535714575, (0, 0, 0, 8, 2), 3, 155),
    (7, 3): (6.309297535714575, (0, 0, 0, 7, 3), 3, 155),
    (6, 4): (6.0, (0, 0, 0, 6, 0), 2, 155),
    (5, 5): (5.0, (0, 0, 0, 5, 0), 2, 155),
    (10, 1): (6.940227289286033, (0, 0, 0, 10, 1), 3, 106),
    (9, 2): (6.940227289286033, (0, 0, 0, 9, 2), 3, 155),
    (8, 3): (6.940227289286033, (0, 0, 0, 8, 3), 3, 155),
    (7, 4): (6.940227289286033, (0, 0, 0, 7, 4), 3, 155),
    (6, 5): (6.0, (0, 0, 0, 6, 0), 2, 155),
    (11, 1): (7.5711570428574895, (0, 0, 0, 11, 1), 3, 106),
    (10, 2): (7.5711570428574895, (0, 0, 0, 10, 2), 3, 155),
    (9, 3): (7.5711570428574895, (0, 0, 0, 9, 3), 3, 155),
    (8, 4): (7.5711570428574895, (0, 0, 0, 8, 4), 3, 155),
    (7, 5): (7.0, (0, 0, 0, 7, 0), 2, 155),
    (6, 6): (6.0, (0, 0, 0, 6, 0), 2, 155),
    (12, 1): (8.202086796428947, (0, 0, 0, 12, 1), 3, 106),
    (11, 2): (8.202086796428947, (0, 0, 0, 11, 2), 3, 155),
    (10, 3): (8.202086796428947, (0, 0, 0, 10, 3), 3, 155),
    (9, 4): (8.202086796428947, (0, 0, 0, 9, 4), 3, 155),
    (8, 5): (8.0, (0, 0, 0, 8, 0), 2, 155),
    (7, 6): (7.0, (0, 0, 0, 7, 0), 2, 155),
    (13, 1): (8.833016550000405, (0, 0, 0, 13, 1), 3, 106),
    (12, 2): (8.833016550000405, (0, 0, 0, 12, 2), 3, 155),
    (11, 3): (8.833016550000405, (0, 0, 0, 11, 3), 3, 155),
    (10, 4): (8.833016550000405, (0, 0, 0, 10, 4), 3, 155),
    (9, 5): (8.833016550000405, (0, 0, 0, 9, 5), 3, 155),
    (8, 6): (8.0, (0, 0, 0, 8, 0), 2, 155),
    (7, 7): (7.0, (0, 0, 0, 7, 0), 2, 155),
    (100, 37): (86.43737623928968, (0, 0, 0, 100, 37), 3, 155),
    (400, 400): (400.0, (0, 0, 0, 400, 0), 2, 155),
    (499, 4): (317.3576660464431, (0, 0, 0, 499, 4), 3, 155),
}


def _witness_ids(c1, c2, counts):
    """Ids of each bundle's first count edges, read off the oracle's edge list."""
    edges = net_edges(c1, c2)
    starts = itertools.accumulate((c1, c1, c1, c1), initial=0)
    return tuple(edges[start + i][0] for start, count in zip(starts, counts) for i in range(count))


def _layout_edges(net):
    """(id, tail, head) of every edge, from the layout table and the bundle sizes."""
    return [
        (eid, tail, head)
        for b, ((_, tail, head), size) in enumerate(zip(LAYOUT, net.sizes))
        for eid in _bundle_ids(net, b, size)
    ]


def _smallest_cuts(net):
    """Each bundle state with its smallest cut: every bundle's first edges, as many as it counts."""
    for state in itertools.product(*(sorted({0, 1, size}) for size in net.sizes)):
        yield state, tuple(eid for b, count in enumerate(state) for eid in _bundle_ids(net, b, count))


def test_network_shape_21():
    net = build_network(CAPS21)
    assert net == Network(c1=2, c2=1)
    assert net.sizes == (2, 2, 2, 2, 1)
    assert net.edges == ("d1", "d2", "d3", "d4", "d5", "d6", "e1", "e2", "e3")
    assert _layout_edges(net) == net_edges(2, 1)
    assert [_bundle_ids(net, b, size) for b, size in enumerate(net.sizes)] == [
        ("d1", "d2"), ("d3", "d4"), ("d5", "d6"), ("e1", "e2"), ("e3",)
    ]
    assert [_bundle_ids(net, b, 1) for b in range(5)] == [("d1",), ("d3",), ("d5",), ("e1",), ("e3",)]


def test_network_shape_11():
    net = build_network(CAPS11)
    assert _layout_edges(net)[0] == ("d1", "s1", "v1")
    assert net.edges == ("d1", "d2", "d3", "e1", "e2")
    assert _layout_edges(net) == net_edges(1, 1)


def test_network_shape_32():
    net = build_network(ChannelCaps.of("3", "2"))
    assert len(net.edges) == sum(net.sizes) == 14
    assert net.sizes == (3, 3, 3, 3, 2)


def test_build_network_refuses_oversized_networks():
    with pytest.raises(ZefcError) as err:
        build_network(ChannelCaps.of("500", "1"))
    assert err.value.code == "too_many_edges"
    assert err.value.details["edges"] == 2001
    with pytest.raises(ZefcError) as err:
        build_network(ChannelCaps.of("1e30", "1"))
    assert err.value.code == "too_many_edges"


def test_network_rejects_fractional_caps():
    with pytest.raises(ZefcError) as err:
        build_network(ChannelCaps.of("3/2", "1"))
    assert err.value.code == "bad_caps"
    with pytest.raises(ZefcError) as err:
        build_network(ChannelCaps.of("inf", "1"))
    assert err.value.code == "bad_caps"


def test_classify_examples():
    net = build_network(CAPS21)
    full_sink = classify_cut(net, ("e1", "e2", "e3"))
    assert sorted(full_sink.i_c) == ["s1", "s2"]
    assert full_sink.is_cut
    one_bundle = classify_cut(net, ("d1", "d2"))
    assert sorted(one_bundle.i_c) == ["s1"]
    wide_only = classify_cut(net, ("e1", "e2"))
    assert sorted(wide_only.i_c) == ["s1"]
    assert not classify_cut(net, ("d1",)).is_cut


def test_classify_refuses_unknown_edge():
    net = build_network(CAPS21)
    with pytest.raises(ZefcError) as err:
        classify_cut(net, ("q7",))
    assert err.value.code == "unknown_edge"


def test_enumerate_cut_counts():
    def cut_sets(net):
        ids = net.edges
        return [
            combo
            for r in range(1, len(ids) + 1)
            for combo in itertools.combinations(ids, r)
            if classify_cut(net, combo).is_cut
        ]

    assert len(cut_sets(build_network(CAPS21))) == 269
    cuts11 = cut_sets(build_network(CAPS11))
    assert len(cuts11) == 27
    assert all(classify(net_edges(1, 1), cut)[0] for cut in cuts11)


def test_classify_matches_oracle_on_all_subsets_21():
    # classify_cut reads bundle states; the oracle walks the graph for every subset.
    for (c1, c2), want in (
        ((2, 1), 269), ((1, 1), 27), ((2, 2), None), ((3, 1), None), ((3, 2), None)
    ):
        net = build_network(ChannelCaps.of(str(c1), str(c2)))
        edges = net_edges(c1, c2)
        ids = [e[0] for e in edges]
        cuts = 0
        for r in range(1, len(ids) + 1):
            for cut in itertools.combinations(ids, r):
                ours = classify_cut(net, cut)
                assert ours.i_c == classify(edges, cut)[0], (c1, c2, cut)
                cuts += ours.is_cut
        assert want is None or cuts == want, (c1, c2)


def test_class_count_examples():
    net = build_network(CAPS21)
    assert n_cf(net, classify_cut(net, ("e1", "e2"))) == 2
    assert n_cf(net, classify_cut(net, ("d1", "d2"))) == 2
    assert n_cf(net, classify_cut(net, ("e1", "e2", "e3"))) == 3
    assert n_cf(net, classify_cut(net, ("d1", "d2", "d3", "d4", "e3"))) == 4
    with pytest.raises(ZefcError) as err:
        n_cf(net, classify_cut(net, ("d1",)))
    assert err.value.code == "not_a_cut"


def test_class_count_matches_oracle_21():
    net = build_network(CAPS21)
    edges = net_edges(2, 1)
    ids = [e[0] for e in edges]
    for r in range(1, 6):
        for cut in itertools.combinations(ids, r):
            cls = classify_cut(net, cut)
            if not cls.is_cut:
                continue
            assert n_cf(net, cls) == class_count_oracle(edges, cut), cut
    full = tuple(ids)
    assert n_cf(net, classify_cut(net, full)) == class_count_oracle(edges, full)


def test_class_count_matches_oracle_11():
    net = build_network(CAPS11)
    edges = net_edges(1, 1)
    ids = [e[0] for e in edges]
    cuts = 0
    for r in range(1, len(ids) + 1):
        for cut in itertools.combinations(ids, r):
            cls = classify_cut(net, cut)
            if not cls.is_cut:
                continue
            cuts += 1
            assert n_cf(net, cls) == class_count_oracle(edges, cut), cut
    assert cuts == 27


def test_class_count_matches_oracle_22():
    # The smallest cut of each (2,2) bundle state: the first check of n_cf with c2 >= 2.
    net = build_network(ChannelCaps.of("2", "2"))
    edges = net_edges(2, 2)
    counts = []
    for state, cut in _smallest_cuts(net):
        cls = classify_cut(net, cut)
        assert cls.state == state
        if cls.is_cut and sum(state) <= 6:
            counts.append(n_cf(net, cls))
            assert counts[-1] == class_count_oracle(edges, cut), state
    assert len(counts) == 105
    assert counts.count(4) == 2


def test_guang_bound_21():
    bound = guang_bound(build_network(CAPS21))
    assert abs(bound.value - 1.8927892607143724) < 1e-12
    assert bound.witness == ("e1", "e2", "e3")
    assert bound.witness_ncf == 3
    oracle_value, oracle_witness = guang_bound_oracle(2, 1, max_cut_size=5)
    assert abs(bound.value - oracle_value) < 1e-12
    assert bound.witness == oracle_witness


def test_guang_bound_11():
    bound = guang_bound(build_network(CAPS11))
    assert bound.value == 1.0
    assert bound.witness == ("d1",)
    assert bound.witness_ncf == 2
    oracle_value, oracle_witness = guang_bound_oracle(1, 1)
    assert abs(bound.value - oracle_value) < 1e-12
    assert bound.witness == oracle_witness


def test_guang_bound_frozen_table():
    for (c1, c2), (value, counts, witness_ncf, cuts_seen) in GUANG_TABLE.items():
        bound = guang_bound(build_network(ChannelCaps.of(str(c1), str(c2))))
        assert bound.value == value, (c1, c2)
        assert bound.witness == _witness_ids(c1, c2, counts), (c1, c2)
        assert bound.witness_ncf == witness_ncf, (c1, c2)
        assert bound.cuts_seen == cuts_seen, (c1, c2)
    assert _witness_ids(5, 3, (0, 0, 0, 5, 0)) == ("e1", "e2", "e3", "e4", "e5")
    assert _witness_ids(2, 1, (0, 0, 0, 2, 1)) == ("e1", "e2", "e3")


def test_guang_bound_matches_closed_form_sweep():
    # Every field of the bound against the one-state-at-a-time scan it replaced, and
    # every (c1, 1), (c1, c1 - 1) and (c1, c1) that MAX_NETWORK_EDGES allows.
    pairs = [(total - c2, c2) for total in range(2, 41) for c2 in range(1, total // 2 + 1)]
    for c2_of in (lambda c1: 1, lambda c1: c1 - 1, lambda c1: c1):
        c1s = range(2, MAX_NETWORK_EDGES // 4 + 1)
        pairs += [(c1, c2_of(c1)) for c1 in c1s if 4 * c1 + c2_of(c1) <= MAX_NETWORK_EDGES]
    assert (499, 1) in pairs and (400, 399) in pairs and (400, 400) in pairs
    for c1, c2 in dict.fromkeys(pairs + [(100, 37), (499, 4)]):
        caps = ChannelCaps.of(str(c1), str(c2))
        bound = guang_bound(build_network(caps))
        assert bound.value == cutset_bound_formula(caps), (c1, c2)
        assert tuple(bound) == guang_state_scan(c1, c2), (c1, c2)


def _key(state, sizes):
    """The count-table key of a bundle state: five full-cut flags, v1->rho touched."""
    return (*(c == size for c, size in zip(state, sizes)), state[3] > 0)


def _row_key(full, p3):
    return (*full, full[3] or p3 > 0)


def test_each_reachable_key_has_one_row():
    # The rows are the keys some cut state reaches, each once, with the least state's
    # class count and size; (1, x) reaches none of the keys that touch v1->rho partially.
    keys = [_row_key(full, p3) for _, full, p3, *_ in _KEY_ROWS]
    assert len(keys) == len(set(keys)) == 38
    reached = set()
    for c1, c2 in ((1, 1), (2, 1), (2, 2), (3, 2), (5, 3)):
        net = build_network(ChannelCaps.of(str(c1), str(c2)))
        least = {}
        for state, _ in _smallest_cuts(net):
            count = _state_count(state, net.sizes)
            if count:
                key = _key(state, net.sizes)
                least[key] = min(least.get(key, (math.inf,)), (sum(state), count))
        reached |= least.keys()
        for count, full, p3, full_d, full_e, _ in _KEY_ROWS:
            key = _row_key(full, p3)
            if key not in least:
                assert p3 and c1 == 1, (c1, c2, key)
                continue
            assert least[key] == (full_d * c1 + full_e * c2 + p3, count), (c1, c2, key)
    assert reached == set(keys)


@pytest.mark.parametrize(
    "c1, c2, want",
    [(1, 1, 27)]
    + [(c1, 1, 106) for c1 in (2, 3, 100, 499)]
    + [(c1, c2, 155) for c1, c2 in ((2, 2), (5, 3), (400, 400))],
)
def test_key_row_multiplicities_count_every_cut_state(c1, c2, want):
    # Each row stands for 2^(free bundles other than v1->rho with more than one edge)
    # cut states, counted here from the row's full-cut flags alone.
    sizes = (c1, c1, c1, c1, c2)
    total = 0
    for count, full, p3, *_ in _KEY_ROWS:
        if p3 and c1 == 1:
            continue
        free = [b for b in (0, 1, 2, 4) if not full[b] and sizes[b] > 1]
        total += 2 ** len(free)
    assert total == want
    assert guang_bound(build_network(ChannelCaps.of(str(c1), str(c2)))).cuts_seen == want


def _near_tie_pairs():
    """Caps where 3^c1 is nearest 2^(c1 + c2): c1 + c2 over c1 a convergent of log2(3)."""
    pairs = []
    for c1, total in ((5, 8), (12, 19), (41, 65), (53, 84), (306, 485)):
        pairs += [(c1, total - c1 + shift) for shift in (-1, 0, 1)]
    return pairs


def test_nontightness_decides_exactly():
    # The bound's branch, its agreement with the enumeration and the gap's sign hold
    # with room to spare, so no float tolerance is needed to decide them.
    pairs = [(total - c2, c2) for total in range(2, 41) for c2 in range(1, total // 2 + 1)]
    for c1, c2 in pairs + _near_tie_pairs() + [(400, 400), (499, 4)]:
        report = nontightness_report(ChannelCaps.of(str(c1), str(c2)))
        assert report.bound_enum == report.bound_formula, (c1, c2)
        assert (c1 <= c2 / (math.log2(3) - 1)) == (3**c1 <= 2 ** (c1 + c2)), (c1, c2)
        if c1 == c2:
            assert report.gap == 0.0, (c1, c2)
        else:
            assert report.gap >= 0.2618, (c1, c2)


def test_state_count_table_matches_cut_off_rule():
    # Every bundle count 0..size, not only the 0, 1 and size that guang_bound visits.
    for c1 in range(1, 5):
        for c2 in range(1, 5):
            sizes = build_network(ChannelCaps.of(str(c1), str(c2))).sizes
            for state in itertools.product(*(range(size + 1) for size in sizes)):
                want = state_class_count(state, sizes)
                assert _state_count(state, sizes) == want, (c1, c2, state)


def test_least_ratio_compares_exactly_and_keeps_ties():
    # 1/log2(2) == 2/log2(4) exactly, and both beat 2/log2(3); a strict < keeps both.
    assert _least_ratio({2: (1, ["a"]), 4: (2, ["b"]), 3: (2, ["c"])}) == ["a", "b"]
    assert _least_ratio({4: (2, ["b"]), 2: (1, ["a", "d"])}) == ["b", "a", "d"]
    # 19/log2(3) < 12 and 84/log2(3) < 53 < 85/log2(3): near ties from convergents of log2(3).
    assert _least_ratio({2: (12, ["two"]), 3: (19, ["three"])}) == ["three"]
    assert _least_ratio({3: (84, ["three"]), 2: (53, ["two"])}) == ["three"]
    assert _least_ratio({2: (53, ["two"]), 3: (85, ["three"])}) == ["two"]


def test_bound_table_matches_closed_form():
    log23 = math.log2(3)
    for (c1, c2), (bound, cap, gap) in BOUND_TABLE.items():
        expected = c1 if c1 <= c2 / (log23 - 1) else (c1 + c2) / log23
        assert abs(bound - expected) < 1e-12, (c1, c2)
        expected_cap = (c1 - c2) * math.log(2, 3) + c2
        assert abs(cap - expected_cap) < 1e-12, (c1, c2)
        assert abs(gap - (bound - cap)) < 1e-12, (c1, c2)


def test_nontightness_reports_match_table():
    for (c1, c2), (bound, cap, gap) in BOUND_TABLE.items():
        caps = ChannelCaps.of(str(c1), str(c2))
        report = nontightness_report(caps)
        assert abs(report.bound_enum - bound) < 1e-9, (c1, c2)
        assert abs(report.bound_formula - bound) < 1e-9
        assert abs(report.capacity - cap) < 1e-9
        assert abs(report.gap - gap) < 1e-9
        assert (report.gap > 1e-12) == (c1 > c2)
        assert abs(cutset_bound_formula(caps) - bound) < 1e-12


def test_nontightness_report_21_details():
    report = nontightness_report(CAPS21)
    assert report.witness_cut == ("e1", "e2", "e3")
    assert report.witness_ncf == 3
    assert abs(report.gap - 0.26185950714291484) < 1e-12


def test_nontightness_report_raises_on_gap_sign_violation(monkeypatch):
    # A capacity equal to the bound leaves no gap although c1 > c2.
    bound = GUANG_TABLE[(2, 1)][0]
    monkeypatch.setattr("zefc.nfc.capacity", lambda switches, caps: types.SimpleNamespace(value=bound))
    with pytest.raises(ZefcError) as err:
        nontightness_report(CAPS21)
    assert err.value.code == "gap_sign_mismatch"


def test_nontightness_report_raises_on_bound_mismatch(monkeypatch):
    # A closed form one unit off the enumerated cut bound.
    formula = cutset_bound_formula(CAPS21)
    monkeypatch.setattr("zefc.nfc.cutset_bound_formula", lambda caps: formula + 1)
    with pytest.raises(ZefcError) as err:
        nontightness_report(CAPS21)
    assert err.value.code == "bound_mismatch"


def test_network_lookups_match_edge_scans():
    for c1, c2 in ((1, 1), (3, 2), (5, 2)):
        net = build_network(ChannelCaps.of(str(c1), str(c2)))
        edges = net_edges(c1, c2)
        assert _layout_edges(net) == edges
        assert net.edges == tuple(edge[0] for edge in edges)
        for node in ("s1", "s2", "v1", "v2", "rho"):
            want = tuple(edge[0] for edge in edges if edge[2] == node)
            assert net.in_edges(node) == want, (c1, c2, node)


def test_state_classes_match_graph_walk():
    # Both sides of EDGE_ORDER_WITNESS_EDGES: (5,3) and (6,2) have more than 20 edges.
    for c1 in range(1, 8):
        for c2 in range(1, min(c1, 8 - c1) + 1):
            net = build_network(ChannelCaps.of(str(c1), str(c2)))
            edges = net_edges(c1, c2)
            for state, cut in _smallest_cuts(net):
                entry = classify_cut(net, cut)
                assert entry.state == state, (c1, c2, state)
                assert entry.i_c == classify(edges, cut)[0], (c1, c2, state)


def test_transform_split_code_k3():
    code = build_split_code_01(3, CAPS21)
    ncode = transform_code(code, CAPS21)
    assert ncode.n == rate_account(code, CAPS21).n == 2
    assert check_network_admissible(ncode)


def test_tuple_ids_match_first_seen_oracle():
    rng = np.random.default_rng(20261019)
    # Negative and wide symbols; over 12 columns a mixed-radix key of their spans
    # (about 2^41 each) would need some 490 bits.
    palette = np.array([-(1 << 40), -7, -1, 0, 3, (1 << 40) - 1, 1 << 40])
    for k in range(1, 5):
        size = 1 << k
        for width, distinct in ((1, 3), (2, 4 ** k), (5, 6), (12, 9), (12, 4 ** k)):
            edges = [f"e{i}" for i in range(width)]
            # Rows drawn from a small pool repeat, so first appearance is not row order.
            pool = rng.choice(palette, size=(distinct, width))
            rows = pool[rng.integers(0, distinct, size * size)]
            symbols = {eid: rows[:, i].reshape(size, size) for i, eid in enumerate(edges)}
            want_ids, _ = first_seen_tuples(rows.T.tolist())
            assert _tuple_ids(symbols, edges).tolist() == want_ids, (k, width)


# Symbols that reach their dtype's extremes: int64 and int8 ends, uint64 values at
# or above 2^63, and a pair 2^63 apart, so one column alone spans 2^62 or more.
PALETTES = (
    (np.int64, [-(1 << 63), -(1 << 63) + 1, -1, 0, (1 << 63) - 1]),
    (np.uint64, [0, 1 << 63, (1 << 64) - 1, (1 << 63) + 5]),
    (np.int8, [-128, -1, 0, 127]),
    (np.uint8, [0, 1, 255]),
    (np.int64, [-(1 << 62), 1 << 62]),
    (np.int16, [-3, 0, 2]),
)


def _view_tables(rng, net, k, plant, palettes=PALETTES):
    """(name, node, table) in check order, each table a random function of its node's view.

    At node plant, the first table then gets one entry changed where an earlier
    (x, y) shares the view, so that table alone is not computable; plant None, or
    a node where no two (x, y) share a view, changes nothing. Returns the tables
    and the name of the changed table, or None.
    """
    size, tables, planted, symbols = 1 << k, [], None, {}
    for name, node, _ in _check_order(net):
        dtype, palette = palettes[rng.integers(len(palettes))]
        ins = net.in_edges(node) if node not in ("s1", "s2") else ()
        views = [
            x if node == "s1" else y if node == "s2" else tuple(symbols[e][x][y] for e in ins)
            for x in range(size)
            for y in range(size)
        ]
        value_of = {view: palette[rng.integers(len(palette))] for view in views}
        flat = [value_of[view] for view in views]
        if node == plant and planted is None:
            first = {}
            for i, view in enumerate(views):
                j = first.setdefault(view, i)
                if j != i:
                    flat[i] = next(v for v in palette if v != flat[j])
                    planted = name
                    break
        table = np.array(flat, dtype=dtype).reshape(size, size)
        symbols[name] = table.tolist()
        tables.append((name, node, table))
    return tables, planted


def _check_order(net):
    """(name, node that computes it, head) of every edge, then of the sink's output."""
    return [*_layout_edges(net), (SINK, SINK, None)]


def _oracle_verdict(net, k, tables):
    nested = [(name, node, table.tolist()) for name, node, table in tables]
    return first_uncomputable_table(k, _layout_edges(net), nested)


def _verdict(net, k, tables):
    """The table make_network_code refuses, or None and the code it builds."""
    symbols = {name: table for name, _, table in tables[:-1]}
    try:
        return None, make_network_code(net, k, symbols, tables[-1][2])
    except ZefcError as err:
        assert err.code == "bad_network_code"
        return err.payload()["details"]["table"], None


def test_network_code_checks_match_a_view_oracle():
    rng = np.random.default_rng(20261022)
    planted_at = set()
    for c1, c2 in ((1, 1), (2, 1), (2, 2), (3, 1)):
        net = build_network(ChannelCaps.of(c1, c2))
        for k in (1, 2, 3):
            for plant in (None, "s1", "s2", "v1", "v2", SINK):
                for _ in range(3):
                    tables, planted = _view_tables(rng, net, k, plant)
                    name, code = _verdict(net, k, tables)
                    assert name == planted == _oracle_verdict(net, k, tables), (c1, c2, k, plant)
                    if planted:
                        planted_at.add(plant)
                        continue
                    counts = [len(set(t.ravel().tolist())) for _, _, t in tables[:-1]]
                    assert code.n == max((c - 1).bit_length() for c in counts)
                    for node in ("v1", "v2", SINK):
                        ids = net.in_edges(node)
                        columns = [code.symbols[eid].ravel().tolist() for eid in ids]
                        got = _tuple_ids(code.symbols, ids)
                        assert got.tolist() == first_seen_tuples(columns)[0]
                        assert int(got.max()) < 4**k
            # Tables drawn with no regard to views: the refusal names the oracle's table.
            for _ in range(4):
                tables = []
                for name, node, _ in _check_order(net):
                    dtype, palette = PALETTES[rng.integers(len(PALETTES))]
                    table = rng.choice(np.array(palette, dtype=dtype), (1 << k, 1 << k))
                    tables.append((name, node, table))
                assert _verdict(net, k, tables)[0] == _oracle_verdict(net, k, tables), (c1, c2, k)
    assert planted_at == {"s1", "s2", "v1", "v2", SINK}
    # Twelve columns into v1 of N(6,1), each spanning 4 * 4^k = 64 at k = 2, so the
    # product of their spans passes 2^62 and the key is ranked densely on the way.
    net = build_network(ChannelCaps.of(6, 1))
    for plant in (None, "v1", SINK):
        tables, planted = _view_tables(rng, net, 2, plant, ((np.int32, [-40, 0, 23]),))
        assert _verdict(net, 2, tables)[0] == planted == _oracle_verdict(net, 2, tables), plant
        ids = net.in_edges("v1")
        symbols = {name: table for name, _, table in tables}
        columns = [symbols[eid].ravel().tolist() for eid in ids]
        assert _tuple_ids(symbols, ids).tolist() == first_seen_tuples(columns)[0]
    # The same spans where only the first column tells the tuples apart: a key that
    # wrapped past 2^64 instead of being ranked would lose it.
    first = rng.choice([-40, 0, 23], 16)
    rest = [-40] + [23] * 15
    columns = [first.tolist(), *[rest] * 11]
    symbols = {f"e{i}": np.array(c, dtype=np.int32).reshape(4, 4) for i, c in enumerate(columns)}
    assert _tuple_ids(symbols, list(symbols)).tolist() == first_seen_tuples(columns)[0]


def test_narrow_tables_with_a_full_byte_of_tuples_at_a_node():
    # In N(1,1) the relay v1 reads all of x and y, so at k = 4 it sees 256 tuples
    # and at k = 8 65536: their ids top out at the largest uint8 and uint16 value,
    # where a table size of ids.max() + 1 would wrap around to 0.
    for k, dtype in ((4, np.uint8), (8, np.uint16)):
        code = build_split_code_01(k, CAPS11)
        assert code.phi1.dtype == code.phi2.dtype == np.uint8 and code.psi.dtype == dtype
        ncode = transform_code(code, CAPS11)
        ids = _tuple_ids(ncode.symbols, ncode.network.in_edges("v1"))
        assert ids.dtype == dtype and int(ids.max()) == 4**k - 1
        assert check_network_admissible(ncode)
        assert check_admissible(inverse_transform(ncode)).ok


def test_transform_roundtrip_small_k():
    cases = [(caps, k) for caps in (CAPS21, ChannelCaps.of("3", "2")) for k in range(1, 7)]
    for caps, k in cases + [(CAPS21, 8)]:
        code = build_split_code_01(k, caps)
        ncode = transform_code(code, caps)
        acct = rate_account(code, caps)
        assert ncode.n == acct.n, (caps.as_strings(), k)
        assert check_network_admissible(ncode)
        back = inverse_transform(ncode)
        assert back.im1 == code.im1 and back.im2 == code.im2
        assert check_admissible(back).ok
        assert rate_account(back, caps).n == acct.n


def test_transform_sink_information_budget():
    for k in range(1, 6):
        code = build_split_code_01(k, CAPS21)
        ncode = transform_code(code, CAPS21)
        sink_ids = ncode.network.in_edges("rho")
        product = math.prod(np.unique(ncode.symbols[eid]).size for eid in sink_ids)
        assert product >= 3**k


def _sink_tables(ncode):
    return [ncode.symbols[eid].tolist() for eid in ncode.network.in_edges("rho")]


def _sink_decoder(ncode):
    """The sink's output as a map from each tuple of sink symbols to its sum."""
    tables, output = _sink_tables(ncode), ncode.output.tolist()
    decoder = {}
    for x in range(1 << ncode.k):
        for y in range(1 << ncode.k):
            symbols = tuple(table[x][y] for table in tables)
            assert decoder.setdefault(symbols, output[x][y]) == output[x][y], (x, y)
    return decoder


def _output_changed_at_01(ncode):
    output = ncode.output.copy()
    output[0, 1] += 1
    return output


def test_network_admissibility_matches_oracle():
    for caps in (CAPS21, ChannelCaps.of("3", "2")):
        for k in range(1, 6):
            ncode = transform_code(build_split_code_01(k, caps), caps)
            want = network_admissible_oracle(k, _sink_tables(ncode), _sink_decoder(ncode))
            assert want is check_network_admissible(ncode) is True, (caps.as_strings(), k)
    ncode = transform_code(build_split_code_01(3, CAPS21), CAPS21)
    # Wrong on every pair whose sink tuple is that of (0, 1): the sink can compute it.
    sink = np.stack([ncode.symbols[eid] for eid in ncode.network.in_edges("rho")])
    shared = (sink == sink[:, :1, 1:2]).all(axis=0)
    bad = make_network_code(ncode.network, 3, ncode.symbols, ncode.output + shared)
    assert network_admissible_oracle(3, _sink_tables(bad), _sink_decoder(bad)) is False
    assert check_network_admissible(bad) is False
    # The sink cannot tell (0, 1) from (1, 0), so an output changed at (0, 1) alone
    # is not a function of what it sees.
    assert shared[1, 0]
    with pytest.raises(ZefcError) as err:
        make_network_code(ncode.network, 3, ncode.symbols, _output_changed_at_01(ncode))
    assert err.value.code == "bad_network_code"
    assert err.value.payload()["details"]["table"] == "rho"


def test_make_network_code_refuses_unrealizable_tables():
    ncode = transform_code(build_split_code_01(2, CAPS11), CAPS11)
    x = np.broadcast_to(np.arange(4)[:, None], (4, 4))
    y = np.broadcast_to(np.arange(4)[None, :], (4, 4))
    # v2 sees only y; d1 leaves s1, which sees only x; and a 2x4 table fits no k.
    for eid, table in (("e2", x), ("d1", x + y), ("d1", np.zeros((2, 4), dtype=np.int64))):
        with pytest.raises(ZefcError) as err:
            make_network_code(ncode.network, 2, {**ncode.symbols, eid: table}, ncode.output)
        assert err.value.code == "bad_network_code"
        assert err.value.payload()["details"]["table"] == eid
    # The sink's output needs the same shape and integer type as an edge's table.
    for output in (ncode.output[:2], ncode.output.ravel(), ncode.output.astype(float)):
        with pytest.raises(ZefcError) as err:
            make_network_code(ncode.network, 2, ncode.symbols, output)
        assert err.value.code == "bad_network_code"
        assert err.value.payload()["details"]["table"] == "rho"
    assert make_network_code(ncode.network, 2, ncode.symbols, ncode.output).n == ncode.n


def test_transform_rejects_other_cases():
    packing = build_packing_code_11(2, CAPS21)
    with pytest.raises(ZefcError) as err:
        transform_code(packing, CAPS21)
    assert err.value.code == "bad_switches"


def test_transform_k_guard():
    code = build_split_code_01(11, CAPS21)
    with pytest.raises(ZefcError) as err:
        transform_code(code, CAPS21)
    assert err.value.code == "k_too_large"
    net = build_network(CAPS11)
    with pytest.raises(ZefcError) as err:
        make_network_code(net, 11, {}, None)
    assert err.value.code == "k_too_large"


def test_inverse_transform_rejects_x_dependent_narrow_edge():
    # make_network_code refuses an x-dependent e2 (v2 sees only y), so the table is
    # swapped in after the code is built.
    ncode = transform_code(build_split_code_01(1, CAPS11), CAPS11)
    x = np.broadcast_to(np.arange(2)[:, None], (2, 2))
    bad = ncode._replace(symbols={**ncode.symbols, "e2": x})
    with pytest.raises(ZefcError) as err:
        inverse_transform(bad)
    assert err.value.code == "bad_network_code"
    assert check_admissible(inverse_transform(ncode)).ok


def test_inverse_transform_rejects_output_not_read_off_label_pair():
    # make_network_code refuses an output that differs at (0, 1) and (1, 0), which
    # share a label pair, so the output is swapped in after the code is built.
    ncode = transform_code(build_split_code_01(3, CAPS21), CAPS21)
    bad = ncode._replace(output=_output_changed_at_01(ncode))
    with pytest.raises(ZefcError) as err:
        inverse_transform(bad)
    assert err.value.code == "bad_network_code"
    assert check_admissible(inverse_transform(ncode)).ok


@pytest.mark.parametrize(
    "change, code",
    [
        # Encoder 1's label no longer fits its bundle.
        (lambda acct: acct._replace(n1=0), "image_over_budget"),
        # One more channel use than the network code has.
        (lambda acct: acct._replace(n=acct.n + 1), "transform_rate_mismatch"),
    ],
    ids=["n1_zero", "n_plus_one"],
)
def test_transform_refuses_a_wrong_rate_account(monkeypatch, change, code):
    split = build_split_code_01(3, CAPS21)
    wrong = change(rate_account(split, CAPS21))
    monkeypatch.setattr("zefc.nfc.rate_account", lambda *_: wrong)
    with pytest.raises(ZefcError) as err:
        transform_code(split, CAPS21)
    assert err.value.code == code
