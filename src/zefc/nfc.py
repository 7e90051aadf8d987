"""Network view of the 01 case: the N(c1,c2) family, cut bounds, code transforms."""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bitspace import sum_table
from .capacity import LOG2_3, capacity
from .codec import MAX_EXHAUSTIVE_K, KShotCode, SwitchPair, first_seen, rate_account
from .errors import ZefcError

# Bounds the edge ids a report lists. At this limit, caps (400,400) or (499,4),
# `nontightness_report` takes about 2 ms in-process (Python 3.11, one Xeon core).
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
    """Per-edge symbol tables plus a sink decoder, with realized use counts.

    symbols[e][x, y] is the symbol edge e carries for the k-bit source words x and
    y. decoder maps each tuple of sink symbols that occurs, in in_edges(sink) order,
    to the packed base-3 sum it decodes to.
    """

    network: Network
    k: int
    symbols: dict
    decoder: dict
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
    """Sources a bundle state disconnects, given which of its bundles are fully cut."""
    return tuple(
        s for s, paths in _PATHS.items() if all(any(full[b] for b in path) for path in paths)
    )


# An lru_cache function only because perfbench/worker.py reads its cache_info().
@functools.lru_cache(maxsize=None)
def _structure_count(blocks):
    """Class product of disjoint source blocks: 2 for a block of one source, 3 for both.

    A block's classes are the distinct x + y signatures its sources leave over every
    value of the other sources. Held sources shift x + y but never merge its values,
    so the side context does not change the count.
    """
    return math.prod(3 if len(block) == 2 else 2 for block in blocks)


def _state_count(state, sizes):
    """n_cf of a bundle state, or 0 if the state cuts off no source."""
    full = [count == size for count, size in zip(state, sizes)]
    i_c = _cut_off(full)
    if not i_c:
        return 0
    if full[0] and full[1] and not state[3] and (full[2] or full[4]):
        return _structure_count((("s1",), ("s2",)))
    return _structure_count((i_c,))


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


def guang_bound(net):
    """Minimum |C| / log2(n_cf) over all cut sets.

    Cuts in one bundle state share n_cf, so the minimum is reached at the smallest
    cut of some state, and only those are scored. A state's smallest cut is each
    bundle's first edges, as many as the state counts.
    """
    sizes = net.sizes
    states = list(itertools.product(*(sorted({0, 1, size}) for size in sizes)))
    if sum(sizes) <= EDGE_ORDER_WITNESS_EDGES:
        states.sort(key=lambda st: (sum(st), [-c for c in st]))
    best, best_state, witness_ncf, seen = None, None, None, 0
    for state in states:
        count = _state_count(state, sizes)
        if not count:
            continue
        seen += 1
        ratio = sum(state) / math.log2(count)
        if best is None or ratio < best - 1e-12:
            best, best_state, witness_ncf = ratio, state, count
    witness = tuple(eid for b, c in enumerate(best_state) for eid in _bundle_ids(net, b, c))
    return GuangBound(value=best, witness=witness, witness_ncf=witness_ncf, cuts_seen=seen)


def cutset_bound_formula(caps):
    """Closed form of the cut-set bound over the network family."""
    c1, c2 = float(caps.c1), float(caps.c2)
    if c1 <= c2 / (LOG2_3 - 1):
        return c1
    return (c1 + c2) / LOG2_3


def _chunk_layout(bits, parts):
    """Balanced bit-chunk widths, wider chunks first, with cumulative offsets."""
    base, extra = divmod(bits, parts)
    widths = [base + 1 if i < extra else base for i in range(parts)]
    return list(zip(itertools.accumulate(widths, initial=0), widths))


def _bits_for(count):
    return (count - 1).bit_length() if count > 1 else 0


def _tuple_ids(symbols, ids):
    """Number of the tuple of symbols the edges carry at each (x, y), x major.

    Tuples are numbered in order of first appearance; they are returned in that order.
    Each edge's symbols are numbered densely and folded into one int64 key per
    (x, y), which is numbered densely again after every fold, so the key stays
    below 4^k times the edge's count of distinct symbols whatever the symbols are.
    """
    columns = [symbols[eid].ravel() for eid in ids]
    key = np.unique(columns[0], return_inverse=True)[1]
    for column in columns[1:]:
        values, digits = np.unique(column, return_inverse=True)
        key = np.unique(key * values.size + digits, return_inverse=True)[1]
    ids, starts = first_seen(key)
    return ids, np.stack([column[starts] for column in columns], axis=1)


def make_network_code(net, k, symbols, decoder):
    """Assemble a network code from per-edge symbol tables, deriving use counts.

    Each edge needs a (2^k, 2^k) integer table that its tail can compute: a function
    of x out of s1, of y out of s2, and of the symbols on the edges into its tail
    out of any other node.
    """
    if k > MAX_EXHAUSTIVE_K:
        raise ZefcError("k_too_large", f"network codes are limited to k<={MAX_EXHAUSTIVE_K}", k=k)
    size = 1 << k
    edges = net.edges
    for eid in edges:
        table = symbols.get(eid)
        if (
            not isinstance(table, np.ndarray)
            or table.shape != (size, size)
            or not np.issubdtype(table.dtype, np.integer)
        ):
            raise ZefcError(
                "bad_network_code",
                f"each edge needs a {size}x{size} integer symbol table",
                edge=eid,
            )
    words = np.arange(size)
    # What each node sees at each (x, y), x major, as numbers: s1 sees x and s2 sees y.
    seen = {"s1": np.repeat(words, size), "s2": np.tile(words, size)}
    tails = [tail for (_, tail, _), count in zip(LAYOUT, net.sizes) for _ in range(count)]
    for eid, tail in zip(edges, tails):
        if tail not in seen:
            seen[tail] = _tuple_ids(symbols, net.in_edges(tail))[0]
        feed, table = seen[tail], symbols[eid].ravel()
        # The edge is computable iff it holds one symbol per value its tail sees.
        value = np.empty(feed.max() + 1, dtype=table.dtype)
        value[feed] = table
        if (value[feed] != table).any():
            raise ZefcError(
                "bad_network_code",
                "an edge's symbols must follow from what its tail sees",
                edge=eid,
            )
    n_e = {eid: _bits_for(np.unique(symbols[eid]).size) for eid in edges}
    return KShotNetworkCode(
        network=net,
        k=k,
        symbols={eid: symbols[eid] for eid in edges},
        decoder=dict(decoder),
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
    realized = (np.unique(code.phi1).size, np.unique(phi2[0]).size)
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
    # Each sink tuple spells out one label pair, which decodes through psi.
    ids, tuples = _tuple_ids(symbols, net.in_edges(SINK))
    sums = np.empty(len(tuples), dtype=np.int64)
    sums[ids] = code.psi[code.phi1, phi2].ravel()
    decoder = dict(zip(map(tuple, tuples.tolist()), sums.tolist()))
    ncode = make_network_code(net, k, symbols, decoder)
    if ncode.n != acct.n:
        raise ZefcError(
            "transform_rate_mismatch",
            "network and distributed use counts disagree",
            network=ncode.n,
            distributed=acct.n,
        )
    return ncode


def _decoded(ncode):
    """What the sink decodes for each (x, y), x major; -1 where the decoder has no entry."""
    ids, tuples = _tuple_ids(ncode.symbols, ncode.network.in_edges(SINK))
    values = [ncode.decoder.get(t, -1) for t in map(tuple, tuples.tolist())]
    return np.array(values, dtype=np.int64)[ids]


def check_network_admissible(ncode):
    """Exhaustively verify the sink decodes the componentwise sum."""
    return bool((_decoded(ncode) == sum_table(ncode.k).ravel()).all())


def inverse_transform(ncode):
    """Recover a two-encoder code from a network code's sink-facing symbols.

    Each encoder's label is the tuple of symbols on its relay's edges into the sink,
    numbered in order of first appearance.
    """
    size, net = 1 << ncode.k, ncode.network
    (phi1, wide), (phi2, narrow) = (
        _tuple_ids(ncode.symbols, _bundle_ids(net, b, net.sizes[b])) for b in (3, 4)
    )
    phi1, phi2 = phi1.reshape(size, size), phi2.reshape(size, size)
    if (phi2 != phi2[:1]).any():
        raise ZefcError("bad_network_code", "the narrow-channel message must not depend on x")
    decoded = _decoded(ncode)
    if (decoded < 0).any():
        raise ZefcError("bad_network_code", "the decoder must cover every sink tuple that occurs")
    # Label pairs that never occur together decode to 0.
    psi = np.zeros((len(wide), len(narrow)), dtype=np.int64)
    psi[phi1.ravel(), phi2.ravel()] = decoded
    return KShotCode(
        k=ncode.k,
        switches=SwitchPair(0, 1),
        phi1=phi1,
        phi2=phi2,
        psi=psi,
        im1=len(wide),
        im2=len(narrow),
        name="inverse-transform",
    )


def nontightness_report(caps):
    """Capacity vs the cut-set bound; the gap is positive exactly when c1 > c2."""
    net = build_network(caps)
    cap_value = capacity(SwitchPair(0, 1), caps).value
    bound = guang_bound(net)
    formula = cutset_bound_formula(caps)
    if abs(bound.value - formula) > 1e-9:
        raise ZefcError(
            "bound_mismatch",
            "enumerated bound disagrees with the closed form",
            enumerated=bound.value,
            formula=formula,
        )
    gap = bound.value - cap_value
    if (gap > 1e-12) != (caps.c1 > caps.c2):
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
