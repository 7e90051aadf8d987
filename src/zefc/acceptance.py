"""Self-contained acceptance checks: each criterion returns a pass/fail record."""

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .bitspace import binary_to_base3_table
from .capacity import capacity
from .codec import (
    ChannelCaps,
    KShotCode,
    SwitchPair,
    build_split_code_01,
    check_admissible,
    packing_sizes,
    rate_account,
)
from .coloring import (
    EXACT_CHIM_LIMIT,
    EXACT_QK_LIMIT,
    chi,
    chi_m,
    mixed_min_pair_sumset,
    q_k,
    verify_aitch_superadditivity,
    verify_sumset_lower_bound,
)
from .errors import ZefcError
from .exact import LOG2_3, log2_3_sign
from .nfc import (
    build_network,
    check_network_admissible,
    classify_cut,
    inverse_transform,
    n_cf,
    nontightness_report,
    transform_code,
)

CAP_PAIRS = [("2", "1"), ("1", "1"), ("3", "2"), ("3/2", "1"), ("7/3", "5/4"), ("5", "2")]
BOUND_PAIRS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (6, 1)]


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    name: str
    passed: bool
    elapsed_s: float
    details: dict
    failures: tuple


def _criterion(name, budget=None):
    """Make check, which returns (failures, details), a timed criterion named name.

    A ZefcError from check is a failure under that name, with its code and
    message, so the other criteria still run. A run reaching budget seconds fails.
    """

    def wrap(check):
        @functools.wraps(check)
        def run():
            started = time.perf_counter()
            try:
                failures, details = check()
            except ZefcError as err:
                failures, details = [f"{err.code}: {err.message}"], {}
            elapsed = time.perf_counter() - started
            if budget is not None and elapsed >= budget:
                failures = [*failures, f"runtime {elapsed:.2f}s exceeded budget {budget}s"]
            return CriterionResult(name, not failures, elapsed, details, tuple(failures))

        return run

    return wrap


@_criterion("capacity_closed_forms")
def run_criterion_1():
    """Closed-form capacity values and tags for every case, under 1 ms per query."""
    failures, checked = [], 0
    worst_ms = 0.0
    log32 = 1 / LOG2_3
    for c1s, c2s in CAP_PAIRS:
        caps = ChannelCaps.of(c1s, c2s)
        c1f, c2f = float(caps.c1), float(caps.c2)
        expected = {
            "00": (c2f, "C2"),
            "10": (c2f, "C2"),
            "11": ((c1f + c2f) / LOG2_3, "(C1+C2)/log2(3)"),
            "01": ((c1f - c2f) * log32 + c2f, "(C1-C2)*log3(2)+C2"),
        }
        if (caps.c1, caps.c2) == (Fraction(2), Fraction(1)):
            expected["01"] = (math.log2(6) / LOG2_3, "log3(6)")
        for case, (value, tag) in expected.items():
            switches = SwitchPair.from_string(case)
            capacity(switches, caps)
            best = min(
                _timed(lambda: capacity(switches, caps)) for _ in range(3)
            )
            worst_ms = max(worst_ms, best * 1000.0)
            result = capacity(switches, caps)
            checked += 1
            if abs(result.value - value) > 1e-12:
                failures.append(f"case {case} caps ({c1s},{c2s}): {result.value} != {value}")
            if result.formula != tag:
                failures.append(f"case {case} caps ({c1s},{c2s}): tag {result.formula!r} != {tag!r}")
    if worst_ms >= 1.0:
        failures.append(f"slowest query {worst_ms:.3f} ms >= 1 ms")
    # The time is checked, not reported: a measured value would make the report vary.
    details = {"queries": checked, "max_query_ms": None}
    return failures, details


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@_criterion("split_sandwich", 10.0)
def run_criterion_2():
    """Split-code sandwich at caps (2,1): admissibility, k=100 rate, 2% gap."""
    failures = []
    caps = ChannelCaps.of("2", "1")
    target = math.log2(6) / LOG2_3
    rates = {}
    for k in [1, 2, 4, 8, 16, 32, 64, 128]:
        code = build_split_code_01(k, caps)
        acct = rate_account(code, caps)
        rates[k] = str(acct.rate)
        if k <= 8:
            outcome = check_admissible(code)
            if not outcome.ok:
                failures.append(f"k={k}: inadmissible at {outcome.counterexample}")
    acct = rate_account(build_split_code_01(100, caps), caps)
    if acct.rate != Fraction(100, 62):
        failures.append(f"k=100 rate {acct.rate} != 100/62")
    if abs(float(acct.rate) - target) / target > 0.02:
        failures.append(f"k=100 rate {float(acct.rate)} not within 2% of {target}")
    details = {"rates": rates, "rate_100": str(acct.rate), "target": round(target, 12)}
    return failures, details


@_criterion("coloring_converse", 60.0)
def run_criterion_3():
    """Exact Q_k versus the ceiling bound, and chi_m versus the Q_k reduction."""
    failures = []
    tau = LOG2_3 - 1
    tables = {k: {l: q_k(k, l) for l in range((1 << k) + 1)} for k in range(1, EXACT_QK_LIMIT + 1)}
    for k, table in tables.items():
        for l in range(1, (1 << k) + 1):
            bound = math.ceil((1 << k) * l**tau - 1e-9)
            if table[l].value < bound:
                failures.append(f"Q_{k}({l}) = {table[l].value} < {bound}")
            if k <= 2 and l in (1, 2, 1 << k) and table[l].value != bound:
                failures.append(f"Q_{k}({l}) = {table[l].value} != bound {bound} (equality case)")
    for k in range(1, EXACT_CHIM_LIMIT + 1):
        for m in range(1, (1 << k) + 1):
            result = chi_m(k, m)
            floor = tables[k][math.ceil((1 << k) / m)].value
            if result.value < floor:
                failures.append(f"chi_{m} at k={k}: {result.value} < Q_k bound {floor}")
    details = {"qk_k_max": EXACT_QK_LIMIT, "chim_k_max": EXACT_CHIM_LIMIT}
    return failures, details


@_criterion("aitch_superadditivity", 5.0)
def run_criterion_4():
    """Superadditivity of l^tau at tau = log2(3)-1, and failure just above it.

    The concavity lemma on verify_sumset_lower_bound proves superadditivity at
    every l from 0 < tau < 1, decided exactly here; 2^tau = 3/2 by definition.
    """
    failures = []
    if not log2_3_sign(-1, 1) > 0 > log2_3_sign(-2, 1):
        failures.append("tau = log2(3)-1 is not in (0, 1)")
    report = verify_aitch_superadditivity(1024)
    counterexample = report.tau_maximality
    if counterexample is None:
        failures.append("no counterexample found at tau + 0.01")
    elif not counterexample["lhs"] < counterexample["rhs"]:
        failures.append(f"counterexample {counterexample['split']} does not fail")
    details = {
        "checked": report.checked,
        "violations": report.violations,
        "counterexample": counterexample,
    }
    return failures, details


@_criterion("sumset_lower_bound", 30.0)
def run_criterion_5():
    """Sumset lower bound, exhaustive over every nonempty subset up to k = 4."""
    failures = []
    report = verify_sumset_lower_bound(4)
    for entry in report.entries:
        if entry["mode"] != "exhaustive":
            failures.append(f"k={entry['k']} was not checked exhaustively")
        if entry["violations"]:
            failures.append(f"k={entry['k']}: {len(entry['violations'])} violations")
    top = report.entries[-1]
    if top["subsets_checked"] != 65535:
        failures.append(f"k=4 checked {top['subsets_checked']} subsets, expected 65535")
    details = {"subsets_at_k4": top["subsets_checked"], "violations": 0 if not failures else None}
    return failures, details


@_criterion("cutset_nontightness", 60.0)
def run_criterion_6():
    """Cut-set bound non-tightness at (2,1) and closed-form agreement to c1+c2 = 7."""
    failures = []
    caps21 = ChannelCaps.of("2", "1")
    report = nontightness_report(caps21)
    if abs(report.capacity - math.log2(6) / LOG2_3) > 1e-9:
        failures.append(f"capacity {report.capacity} != log3(6)")
    if abs(report.bound_enum - 3 / LOG2_3) > 1e-9:
        failures.append(f"bound {report.bound_enum} != log3(8)")
    if report.witness_cut != ("e1", "e2", "e3"):
        failures.append(f"witness {report.witness_cut} != (e1, e2, e3)")
    if abs(report.gap - 0.261860) > 1e-5 or report.gap <= 0:
        failures.append(f"gap {report.gap} not ~ 0.261860")
    net = build_network(caps21)
    trio = tuple(
        n_cf(net, classify_cut(net, ids))
        for ids in (("e1", "e2"), ("e1", "e2", "e3"), ("d1", "d2", "d3", "d4", "e3"))
    )
    if trio != (2, 3, 4):
        failures.append(f"cut-class counts {trio} != (2, 3, 4)")
    gaps = {}
    for c1, c2 in BOUND_PAIRS:
        # Raises bound_mismatch, a failure of this criterion, where the closed form differs.
        rep = nontightness_report(ChannelCaps.of(str(c1), str(c2)))
        gaps[f"{c1},{c2}"] = round(rep.gap, 6)
    if gaps["1,1"] != 0.0:
        failures.append(f"(1,1) gap {gaps['1,1']} != 0")
    if abs(gaps["3,2"] - 0.36907) > 1e-5:
        failures.append(f"(3,2) gap {gaps['3,2']} not ~ 0.369070")
    details = {"cut_class_counts": trio, "gap_21": round(report.gap, 6), "gaps": gaps}
    return failures, details


@_criterion("mixed_pair_minimum", 120.0)
def run_criterion_7():
    """Minimum mixed-pair sumset is 3 * 2^(k-1) at k = 1..8, with its proof's premises.

    On raw sets: the digit overlap table, the overlap of A^k + y1 and A^k + y2 as
    the product of digit overlaps over every pair at k <= 3, and each witness.
    """
    overlap = [[len({a, a + 1} & {b, b + 1}) for b in range(3)] for a in range(3)]
    failures = [] if overlap == [[2, 1, 0], [1, 2, 1], [0, 1, 2]] else [f"overlap {overlap}"]

    def shifted(k, y):
        return {tuple(a + b for a, b in zip(x, y)) for x in itertools.product((0, 1), repeat=k)}

    for k in (1, 2, 3):
        sums = {y: shifted(k, y) for y in itertools.product(range(3), repeat=k)}
        for y1, y2 in itertools.combinations(sums, 2):
            if len(sums[y1] & sums[y2]) != math.prod(overlap[a][b] for a, b in zip(y1, y2)):
                failures.append(f"k={k} {y1} {y2}: overlap is not the digit product")
    values = {}
    for k in range(1, 9):
        result = mixed_min_pair_sumset(k)
        values[k] = result.value
        y1, y2 = (tuple(map(int, word)) for word in result.witness)
        if y1 == y2 or len(shifted(k, y1) | shifted(k, y2)) != result.value:
            failures.append(f"k={k}: witness {result.witness} does not reach {result.value}")
        if result.value != 3 * (1 << (k - 1)):
            failures.append(f"k={k}: {result.value} != {3 * (1 << (k - 1))}")
    details = {"values": values}
    return failures, details


@_criterion("property_suite")
def run_criterion_8():
    """Property suite: coloring agreement, transform round-trip, packing budget."""
    failures = []
    for k in (1, 2):
        words = list(range(1 << k))
        table = binary_to_base3_table(k)

        def conflict(u, v):
            return table[u[0]] + table[u[1]] != table[v[0]] + table[v[1]]

        picks = [tuple(words[:i]) for i in range(1, len(words) + 1)]
        if k == 2:
            picks += [(0, 3), (1, 2), (0, 2, 3)]
        for m_words, l_words in itertools.product(picks, repeat=2):
            # Colour each pair (x, y) by its sum. A proper colouring with c colours and
            # a clique of c pairs, one per colour, prove chi = c with no search.
            colour = {(x, y): table[x] + table[y] for x in m_words for y in l_words}
            clique = {c: v for v, c in colour.items()}.values()
            pairs = itertools.combinations(colour, 2)
            proper = all(colour[u] != colour[v] for u, v in pairs if conflict(u, v))
            colors = chi(k, m_words, l_words)
            if not proper or not all(conflict(u, v) for u, v in itertools.combinations(clique, 2)):
                failures.append(f"k={k} M={m_words} L={l_words}: sum colouring not certified")
            elif colors != len(clique):
                failures.append(f"k={k} M={m_words} L={l_words}: {colors} != {len(clique)}")
    for caps in (ChannelCaps.of("2", "1"), ChannelCaps.of("3", "2")):
        for k in range(1, 7):
            code = build_split_code_01(k, caps)
            acct = rate_account(code, caps)
            ncode = transform_code(code, caps)
            back = inverse_transform(ncode)
            if ncode.n != acct.n:
                failures.append(f"transform n {ncode.n} != {acct.n} at k={k}")
            if not check_network_admissible(ncode):
                failures.append(f"network code inadmissible at k={k}")
            if (back.im1, back.im2) != (code.im1, code.im2):
                failures.append(f"round-trip image change at k={k}")
            if not check_admissible(back).ok:
                failures.append(f"round-trip code inadmissible at k={k}")
    for c1s, c2s in [("1", "1"), ("2", "1"), ("3", "2"), ("3/2", "1")]:
        caps = ChannelCaps.of(c1s, c2s)
        total = caps.c1 + caps.c2
        for k in range(1, 65):
            # The budget needs the builder's image sizes, not its tables.
            wide, narrow = packing_sizes(k, caps)
            code = KShotCode(k, SwitchPair(1, 1), None, None, None, wide, narrow, "packing11")
            acct = rate_account(code, caps)
            need = total * acct.n
            if log2_3_sign(need, -k) < 0:  # 2^need < 3^k
                failures.append(f"packing budget fails at caps ({c1s},{c2s}) k={k}")
    details = {"coloring_pairs_k2": "prefixes plus split picks", "packing_k_max": 64}
    return failures, details


CRITERIA = (
    run_criterion_1,
    run_criterion_2,
    run_criterion_3,
    run_criterion_4,
    run_criterion_5,
    run_criterion_6,
    run_criterion_7,
    run_criterion_8,
)


def run_all():
    """Every acceptance criterion, in order."""
    return tuple(fn() for fn in CRITERIA)
