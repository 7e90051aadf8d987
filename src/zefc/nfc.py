"""Network view of the 01 case: the N(c1,c2) family, cut bounds, code transforms."""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bitspace import distinct, sum_table
from .capacity import capacity
from .codec import MAX_EXHAUSTIVE_K, KShotCode, SwitchPair, first_seen, rate_account
from .errors import ZefcError
from .exact import LOG2_3, cutset_bound_formula, log2_3_sign

# Bounds the edge ids a report lists. At this limit, caps (400,400) or (499,4),
# `nontightness_report` takes about 0.3 ms in-process (Python 3.11, one Xeon core).
MAX_NETWORK_EDGES = 2000
# Tie-break among cuts of least ratio. Up to this many edges the witness is the cut
# with fewest edges, then most edges in the earliest bundle where two cuts differ,
# which is first in edge order; above it, the one whose per-bundle edge counts come
# first in lexicographic order, so (5,3) reports e1..e5 although d1..d5 ties with
# it. The recorded `nfc` reports carry both rules, so both stay.
EDGE_ORDER_WITNESS_EDGES = 20
SINK = "rho"
# The five bundles of c1, c1, c1, c1 and c2 parallel edges, as (id letter, tail, head);
# ids d1, d2, ... run through the d bundles and e1, e2, ... through the e ones, in order.
LAYOUT = (
    ("d", "s1", "v1"),
    ("d", "s2", "v1"),
    ("d", "s2", "v2"),
    ("e", "v1", SINK),
    ("e", "v2", SINK),
)
# A source is cut off from the sink when every one of its paths crosses a fully
# cut bundle: s1 has the one path s1->v1->rho, s2 the two s2->v1->rho and
# s2->v2->rho.
_PATHS = {"s1": ((0, 3),), "s2": ((1, 3), (2, 4))}
# A source is upstream of a cut when the cut touches a bundle whose tail the
# source reaches: s1 reaches s1 and v1, s2 reaches s2, v1 and v2.
_UPSTREAM = {"s1": (0, 3), "s2": (1, 2, 3, 4)}


@dataclass(frozen=True)
class Network:
    """The two-source relay network with bundle multiplicities c1 and c2."""

    c1: int
    c2: int

    @property
    def sizes(self):
        """Edge count of each bundle, in layout order."""
        return (self.c1, self.c1, self.c1, self.c1, self.c2)

    @functools.cached_property
    def edges(self):
        """Every edge id, in layout order; built once, as classify_cut reads it per cut."""
        return tuple(eid for b, size in enumerate(self.sizes) for eid in _bundle_ids(self, b, size))

    def in_edges(self, node):
        bundles = [b for b, (_, _, head) in enumerate(LAYOUT) if head == node]
        return tuple(eid for b in bundles for eid in _bundle_ids(self, b, self.sizes[b]))


def _bundle_ids(net, bundle, count):
    """Ids of the first count edges of a bundle."""
    letter = LAYOUT[bundle][0]
    first = sum(size for (kind, _, _), size in zip(LAYOUT[:bundle], net.sizes) if kind == letter)
    return tuple(f"{letter}{first + i}" for i in range(1, count + 1))


@dataclass(frozen=True)
class CutClassification:
    """Source sets of a cut's bundle state: disconnected, upstream-only, upstream."""

    cut: tuple
    state: tuple
    i_c: frozenset
    j_c: frozenset
    k_c: frozenset

    @property
    def is_cut(self):
        return bool(self.i_c)


@dataclass(frozen=True)
class GuangBound:
    """Minimum cut-size over class-count ratio, with its witness cut."""

    value: float
    witness: tuple
    witness_ncf: int
    cuts_seen: int


@dataclass(frozen=True, eq=False)
class KShotNetworkCode:
    """Per-edge symbol tables plus the sink's output table, with realized use counts.

    symbols[e][x, y] is the symbol edge e carries for the k-bit source words x and
    y, and output[x, y] the packed base-3 sum the sink decodes there.
    """

    network: Network
    k: int
    symbols: dict
    output: np.ndarray
    n_e: dict
    n: int


@dataclass(frozen=True)
class NontightnessReport:
    """Capacity against the cut-set bound for one cap pair."""

    caps: tuple
    capacity: float
    bound_enum: float
    bound_formula: float
    witness_cut: tuple
    witness_ncf: int
    gap: float
    edges: int


def build_network(caps):
    """The five-bundle relay network for integer caps."""
    if caps.c1.denominator != 1 or caps.c2.denominator != 1:
        raise ZefcError("bad_caps", "edge multiplicities must be integers", caps=caps.as_strings())
    net = Network(c1=int(caps.c1), c2=int(caps.c2))
    if sum(net.sizes) > MAX_NETWORK_EDGES:
        raise ZefcError(
            "too_many_edges",
            f"networks are limited to {MAX_NETWORK_EDGES} edges",
            edges=sum(net.sizes),
        )
    return net


def classify_cut(net, cut):
    """I/J/K source sets for an edge subset, read off its bundle state."""
    edges, ids = net.edges, set(cut)
    for eid in cut:
        if eid not in edges:
            raise ZefcError("unknown_edge", "edge id is not part of this network", id=eid)
    state, end = [], 0
    for size in net.sizes:
        end += size
        count = len(ids.intersection(edges[end - size : end]))
        state.append(count if count in (0, size) else 1)
    i_c = frozenset(_cut_off([c == size for c, size in zip(state, net.sizes)]))
    k_c = frozenset(s for s, bundles in _UPSTREAM.items() if any(state[b] for b in bundles))
    return CutClassification(
        cut=tuple(eid for eid in edges if eid in ids),
        state=tuple(state),
        i_c=i_c,
        j_c=k_c - i_c,
        k_c=k_c,
    )


def _cut_off(full):
    """Sources a bundle state disconnects, given which of its bundles are fully cut.

    Plain loops, not generators: the count table runs this at import, 32 times.
    """
    sources = ()
    for s, paths in _PATHS.items():
        for a, b in paths:
            if not (full[a] or full[b]):
                break
        else:
            sources += (s,)
    return sources


# An lru_cache function only because perfbench/worker.py reads its cache_info().
@functools.lru_cache(maxsize=None)
def _structure_count(blocks):
    """Class product of disjoint source blocks: 2 for a block of one source, 3 for both.

    A block's classes are the distinct x + y signatures its sources leave over every
    value of the other sources. Held sources shift x + y but never merge its values,
    so the side context does not change the count.
    """
    return math.prod(3 if len(block) == 2 else 2 for block in blocks)


def _count_table():
    """n_cf by five full-cut flags, in layout order, and whether bundle 3 is touched.

    Built from `_cut_off` and `n_cf`'s two-block rule: bundles 0 and 1 fully cut,
    bundle 3 untouched and bundle 2 or 4 fully cut. A key that cuts off no source
    maps to 0.
    """
    table = {}
    for full in itertools.product((False, True), repeat=len(LAYOUT)):
        i_c = _cut_off(full)
        count = _structure_count((i_c,)) if i_c else 0
        table[(*full, True)] = count
        if full[0] and full[1] and (full[2] or full[4]):
            count = _structure_count((("s1",), ("s2",)))
        table[(*full, False)] = count
    return table


_STATE_COUNTS = _count_table()


def _state_count(state, sizes):
    """n_cf of a bundle state, or 0 if the state cuts off no source: one table lookup."""
    return _STATE_COUNTS[(*map(operator.eq, state, sizes), state[3] > 0)]


def n_cf(net, cls):
    """Best class-tuple count over strong partitions and side contexts: 2, 3 or 4.

    Each block of a strong partition disconnects a nonempty source set I_b, with
    I_b inside its own upstream set K_b and outside every other block's, so the
    I_b are disjoint and two sources allow at most the two blocks {s1} and {s2}.
    The s1 block may touch no bundle upstream of s2, which leaves only s1->v1, and
    it must cut that bundle fully. The s2 block may touch neither s1->v1 nor
    v1->rho, so it must fully cut s2->v1 and one of s2->v2 and v2->rho. Hence a
    two-block partition exists exactly when bundles 0 and 1 are fully cut, bundle
    3 is untouched and bundle 2 or 4 is fully cut, and such a cut disconnects both
    sources, so no J source is held; otherwise the cut itself is the only block.
    """
    if not cls.is_cut:
        raise ZefcError("not_a_cut", "the class count is defined for cut sets only")
    return _state_count(cls.state, net.sizes)


# log2 of each class count as (p, q): log2(count) = p + q*log2(3).
_LOG2_COUNT = {2: (1, 0), 3: (0, 1), 4: (2, 0)}


def _least_ratio(minima):
    """States of least size / log2(count), given each class count's least size and states.

    Compared exactly, by the rule in `guang_bound`'s docstring; states of equal
    ratio are all kept, whatever their count.
    """
    best, tied = None, []  # best: (count, size)
    for count, (size, states) in minima.items():
        sign = -1
        if best is not None:
            # size / log2(count) - best size / log2(best count) has this sign.
            (p, q), (bp, bq) = _LOG2_COUNT[count], _LOG2_COUNT[best[0]]
            sign = log2_3_sign(size * bp - best[1] * p, size * bq - best[1] * q)
        if sign < 0:
            best, tied = (count, size), list(states)
        elif sign == 0:
            tied += states
    return tied


def guang_bound(net):
    """Minimum |C| / log2(n_cf) over all cut sets.

    Cuts in one bundle state share n_cf, so the minimum is reached at the smallest
    cut of some state, and only those are scored. A state's smallest cut is each
    bundle's first edges, as many as the state counts. n_cf is 2, 3 or 4, and among
    states of one class count the ratio grows with the cut size, so only each
    count's least size can reach the minimum: at most three candidates. They are
    compared exactly: s_a / log2(c_a) < s_b / log2(c_b) exactly when
    s_a * log2(c_b) - s_b * log2(c_a) < 0, a sign `exact.log2_3_sign` decides. The
    tie-break then runs over the states of least ratio alone.
    """
    sizes = net.sizes
    minima, seen = {}, 0  # class count -> (least cut size, the states of that size)
    for state in itertools.product(*(sorted({0, 1, size}) for size in sizes)):
        count = _state_count(state, sizes)
        if not count:
            continue
        seen += 1
        size = sum(state)
        entry = minima.get(count)
        if entry is None or size < entry[0]:
            minima[count] = (size, [state])
        elif size == entry[0]:
            entry[1].append(state)
    tied = _least_ratio(minima)
    if sum(sizes) <= EDGE_ORDER_WITNESS_EDGES:
        best = min(tied, key=lambda st: (sum(st), [-c for c in st]))
    else:
        best = min(tied)
    count = _state_count(best, sizes)
    p, q = _LOG2_COUNT[count]
    return GuangBound(
        value=sum(best) / (p + q * LOG2_3),
        witness=tuple(eid for b, c in enumerate(best) for eid in _bundle_ids(net, b, c)),
        witness_ncf=count,
        cuts_seen=seen,
    )


def _chunk_layout(bits, parts):
    """Balanced bit-chunk widths, wider chunks first, with cumulative offsets."""
    base, extra = divmod(bits, parts)
    widths = [base + 1 if i < extra else base for i in range(parts)]
    return list(zip(itertools.accumulate(widths, initial=0), widths))


def _bits_for(count):
    return (count - 1).bit_length() if count > 1 else 0


def _tuple_ids(symbols, ids):
    """Number of the tuple of symbols the edges carry at each (x, y), x major.

    Tuples are numbered in order of first appearance. One lexsort over the edges'
    columns puts equal tuples next to each other; a new number starts wherever
    any column changes, so the numbers stay below 4^k whatever the symbols are.
    """
    columns = [symbols[eid].ravel() for eid in ids]
    order = np.lexsort(columns)
    change = np.zeros(order.size, dtype=bool)
    for column in columns:
        run = column[order]
        change[1:] |= run[1:] != run[:-1]
    key = np.empty(order.size, dtype=np.int64)
    key[order] = np.cumsum(change)
    return first_seen(key)[0]


def make_network_code(net, k, symbols, output):
    """Assemble a network code from its tables, deriving use counts.

    Each edge needs a (2^k, 2^k) integer table that its tail can compute, and the
    sink's output, the sum it decodes at each (x, y), one the sink can compute. A
    node computes a table that is a function of what it sees: x at s1, y at s2,
    and the symbols on its in-edges at any other node.
    """
    if k > MAX_EXHAUSTIVE_K:
        raise ZefcError("k_too_large", f"network codes are limited to k<={MAX_EXHAUSTIVE_K}", k=k)
    size = 1 << k
    edges = net.edges
    tails = [tail for (_, tail, _), count in zip(LAYOUT, net.sizes) for _ in range(count)]
    # (name, the node that computes it, table): every edge, then the sink's output.
    tables = [*zip(edges, tails, map(symbols.get, edges)), (SINK, SINK, output)]
    for name, _, table in tables:
        if (
            not isinstance(table, np.ndarray)
            or table.shape != (size, size)
            or not np.issubdtype(table.dtype, np.integer)
        ):
            raise ZefcError(
                "bad_network_code",
                f"each edge and the sink's output need a {size}x{size} integer table",
                table=name,
            )
    words = np.arange(size)
    # What each node sees at each (x, y), x major, as numbers: s1 sees x and s2 sees y.
    seen = {"s1": np.repeat(words, size), "s2": np.tile(words, size)}
    for name, node, table in tables:
        if node not in seen:
            seen[node] = _tuple_ids(symbols, net.in_edges(node))
        feed, column = seen[node], table.ravel()
        # The table is computable iff it holds one value per value its node sees.
        value = np.empty(feed.max() + 1, dtype=column.dtype)
        value[feed] = column
        if (value[feed] != column).any():
            raise ZefcError("bad_network_code", "a table must follow from what its node sees", table=name)
    n_e = {eid: _bits_for(distinct(symbols[eid]).size) for eid in edges}
    return KShotNetworkCode(
        network=net,
        k=k,
        symbols={eid: symbols[eid] for eid in edges},
        output=output,
        n_e=n_e,
        n=max(n_e.values()),
    )


def transform_code(code, caps):
    """Express a case-01 code as a network code over the matching network.

    The d edges carry balanced chunks of x and y, the v1->rho edges chunks of
    encoder 1's label and the v2->rho edges chunks of encoder 2's label.
    """
    if code.switches.as_string() != "01":
        raise ZefcError(
            "bad_switches",
            "only case-01 codes have a network form",
            switches=code.switches.as_string(),
        )
    if code.k > MAX_EXHAUSTIVE_K:
        raise ZefcError("k_too_large", f"network codes are limited to k<={MAX_EXHAUSTIVE_K}", k=code.k)
    net = build_network(caps)
    k = code.k
    acct = rate_account(code, caps)
    size = 1 << k
    # Encoder 2 of a case-01 code reads y alone, so its table is any one row.
    phi2 = np.broadcast_to(code.phi2[:1], (size, size))
    realized = (distinct(code.phi1).size, distinct(phi2[0]).size)
    if realized != (code.im1, code.im2):
        raise ZefcError(
            "bad_image_count",
            "declared image sizes disagree with the realized encoder images",
            realized=realized,
        )
    word_chunks = _chunk_layout(k, net.c1)
    label1_chunks = _chunk_layout(_bits_for(code.im1), net.c1)
    label2_chunks = _chunk_layout(_bits_for(code.im2), net.c2)
    if max(w for _, w in label1_chunks) > acct.n1 or max(w for _, w in label2_chunks) > acct.n2:
        raise ZefcError("image_over_budget", "encoder image does not fit the channel bundle")

    words = np.arange(size)
    x = np.broadcast_to(words[:, None], (size, size))
    y = np.broadcast_to(words[None, :], (size, size))
    symbols = {}
    for b, (values, chunks) in enumerate(
        zip((x, y, y, code.phi1, phi2), (word_chunks,) * 3 + (label1_chunks, label2_chunks))
    ):
        for eid, (offset, width) in zip(_bundle_ids(net, b, len(chunks)), chunks):
            symbols[eid] = (values >> offset) & ((1 << width) - 1)
    # The sink's symbols spell out the label pair, which decodes through psi.
    ncode = make_network_code(net, k, symbols, code.psi[code.phi1, phi2])
    if ncode.n != acct.n:
        raise ZefcError(
            "transform_rate_mismatch",
            "network and distributed use counts disagree",
            network=ncode.n,
            distributed=acct.n,
        )
    return ncode


def check_network_admissible(ncode):
    """Exhaustively verify the sink decodes the componentwise sum."""
    return bool((ncode.output == sum_table(ncode.k)).all())


def inverse_transform(ncode):
    """Recover a two-encoder code from a network code's sink-facing symbols.

    Each encoder's label is the tuple of symbols on its relay's edges into the sink,
    numbered in order of first appearance.
    """
    size, net = 1 << ncode.k, ncode.network
    phi1, phi2 = (
        _tuple_ids(ncode.symbols, _bundle_ids(net, b, net.sizes[b])).reshape(size, size)
        for b in (3, 4)
    )
    if (phi2 != phi2[:1]).any():
        raise ZefcError("bad_network_code", "the narrow-channel message must not depend on x")
    # Label pairs that never occur together decode to 0.
    psi = np.zeros((int(phi1.max()) + 1, int(phi2.max()) + 1), dtype=np.int64)
    psi[phi1, phi2] = ncode.output
    # make_network_code refuses an output that the label pair does not determine,
    # but a code changed through dataclasses.replace skips that check.
    if (psi[phi1, phi2] != ncode.output).any():
        raise ZefcError("bad_network_code", "the sink's output must follow from the label pair")
    return KShotCode(
        k=ncode.k,
        switches=SwitchPair(0, 1),
        phi1=phi1,
        phi2=phi2,
        psi=psi,
        im1=psi.shape[0],
        im2=psi.shape[1],
        name="inverse-transform",
    )


def nontightness_report(caps):
    """Capacity vs the cut-set bound; the gap is positive exactly when c1 > c2."""
    net = build_network(caps)
    cap_value = capacity(SwitchPair(0, 1), caps).value
    bound = guang_bound(net)
    formula = cutset_bound_formula(caps)
    if bound.value != formula:
        raise ZefcError(
            "bound_mismatch",
            "enumerated bound disagrees with the closed form",
            enumerated=bound.value,
            formula=formula,
        )
    gap = bound.value - cap_value
    if (gap > 0) != (caps.c1 > caps.c2):
        raise ZefcError(
            "gap_sign_mismatch",
            "the bound must exceed the capacity exactly when c1 > c2",
            gap=gap,
            caps=caps.as_strings(),
        )
    return NontightnessReport(
        caps=caps.as_strings(),
        capacity=cap_value,
        bound_enum=bound.value,
        bound_formula=formula,
        witness_cut=bound.witness,
        witness_ncf=bound.witness_ncf,
        gap=gap,
        edges=sum(net.sizes),
    )
