"""Network view of the 01 case: the N(c1,c2) family, cut bounds, code transforms."""

import functools
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

from .bitspace import distinct, sum_table
from .capacity import capacity
from .codec import MAX_EXHAUSTIVE_K, KShotCode, SwitchPair, first_seen, rate_account
from .errors import ZefcError
from .exact import LOG2_3, cutset_bound_formula, log2_3_sign

# Bounds the edge ids a report lists; `guang_bound` scores 38 key rows whatever the
# caps. At this limit, caps (400,400) or (499,4), `nontightness_report` takes about
# 0.1 ms in-process (Python 3.11.7, a 2-CPU shared Xeon sandbox), most of it spelling
# out the witness's edge ids.
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


class Network(NamedTuple):
    """The two-source relay network with bundle multiplicities c1 and c2."""

    c1: int
    c2: int

    @property
    def sizes(self):
        """Edge count of each bundle, in layout order."""
        return (self.c1, self.c1, self.c1, self.c1, self.c2)

    @property
    def edges(self):
        """Every edge id, in layout order; cached, as classify_cut reads it per cut."""
        return _edges(self)

    def in_edges(self, node):
        """Ids of the edges into node, in layout order; cached like edges."""
        return _in_edges(self, node)


def _bundle_ids(net, bundle, count):
    """Ids of the first count edges of a bundle."""
    letter = LAYOUT[bundle][0]
    first = sum(size for (kind, _, _), size in zip(LAYOUT[:bundle], net.sizes) if kind == letter)
    return tuple(f"{letter}{first + i}" for i in range(1, count + 1))


# A network equals the tuple (c1, c2), so these cache the edges per cap pair.
@functools.lru_cache(maxsize=64)
def _edges(net):
    return tuple(eid for b, size in enumerate(net.sizes) for eid in _bundle_ids(net, b, size))


@functools.lru_cache(maxsize=256)
def _in_edges(net, node):
    bundles = [b for b, (_, _, head) in enumerate(LAYOUT) if head == node]
    return tuple(eid for b in bundles for eid in _bundle_ids(net, b, net.sizes[b]))


class CutClassification(NamedTuple):
    """A cut's bundle state and the sources it disconnects from the sink."""

    state: tuple
    i_c: frozenset

    @property
    def is_cut(self):
        return bool(self.i_c)


class GuangBound(NamedTuple):
    """Minimum cut-size over class-count ratio, with its witness cut."""

    value: float
    witness: tuple
    witness_ncf: int
    cuts_seen: int


class KShotNetworkCode(NamedTuple):
    """Per-edge symbol tables plus the sink's output table, with realized use counts.

    symbols[e][x, y] is the symbol edge e carries for the k-bit source words x and
    y, and output[x, y] the packed base-3 sum the sink decodes there. A code equals
    only itself: tuple equality would compare the tables elementwise.
    """

    network: Network
    k: int
    symbols: dict
    output: np.ndarray
    n: int

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


class NontightnessReport(NamedTuple):
    """Capacity against the cut-set bound for one cap pair."""

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
        message = f"networks are limited to {MAX_NETWORK_EDGES} edges"
        raise ZefcError("too_many_edges", message, edges=sum(net.sizes))
    return net


def classify_cut(net, cut):
    """The bundle state of an edge subset and the sources it disconnects."""
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
    return CutClassification(state=tuple(state), i_c=i_c)


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


def _key_rows():
    """One row per count-table key that a cut can reach and that cuts off a source.

    A row is (n_cf, full-cut flags, p3, fd, fe, bundles among 0, 1 and 2 not fully
    cut): p3 is 1 when the key touches v1->rho without cutting it fully, fd counts
    the fully cut c1-bundles and fe is 1 when v2->rho is fully cut.
    A fully cut bundle is touched, so keys with v1->rho full but untouched are left out.
    """
    rows = []
    for (*full, touched), count in _STATE_COUNTS.items():
        if count and (touched or not full[3]):
            p3 = int(touched and not full[3])
            rows.append((count, tuple(full), p3, sum(full[:4]), int(full[4]), 3 - sum(full[:3])))
    return tuple(rows)


_KEY_ROWS = _key_rows()


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
    """Cuts of least size / log2(count), given each class count's least size and cuts.

    Compared exactly, by the rule in `guang_bound`'s docstring; cuts of equal
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
    """Minimum |C| / log2(n_cf) over all cut sets, scored once per count-table key.

    n_cf depends only on the key: the five full-cut flags and whether v1->rho is
    touched. A partial cut of bundle 0, 1, 2 or 4 changes neither part of the key,
    so within one key extra partial edges only add cut size. A key's least cut is
    therefore its fully cut bundles plus one edge of v1->rho when the key touches
    that bundle without cutting it fully: fd*c1 + fe*c2 + p3 edges, for fd fully cut
    c1-bundles, fe 1 when v2->rho is fully cut and p3 that one edge. It is the only
    cut of its key that can reach the minimum, so `_KEY_ROWS` holds one row per
    key. A key whose p3 edge needs a partial cut of a one-edge v1->rho is not
    reached. `cuts_seen` counts the bundle states, 0, 1 or every edge of each
    bundle, that are cuts: each reached key holds 2^(its free bundles other than
    v1->rho with more than one edge) of them.

    n_cf is 2, 3 or 4, and among keys of one class count the ratio grows with the
    cut size, so only each count's least size can reach the minimum: at most three
    candidates. They are compared exactly: s_a / log2(c_a) < s_b / log2(c_b)
    exactly when s_a * log2(c_b) - s_b * log2(c_a) < 0, a sign
    `exact.log2_3_sign` decides. The tie-break then runs over the least cuts of
    least ratio alone.
    """
    c1, c2, sizes = net.c1, net.c2, net.sizes
    minima, seen = {}, 0  # class count -> (least cut size, its keys' (full, p3))
    for count, full, p3, fd, fe, free_d in _KEY_ROWS:
        if p3 and c1 == 1:
            continue
        seen += 1 << (free_d * (c1 > 1) + (not fe) * (c2 > 1))
        size = fd * c1 + fe * c2 + p3
        entry = minima.get(count)
        if entry is None or size < entry[0]:
            minima[count] = (size, [(full, p3)])
        elif size == entry[0]:
            entry[1].append((full, p3))
    tied = []
    for full, p3 in _least_ratio(minima):
        state = [size if f else 0 for f, size in zip(full, sizes)]
        state[3] += p3
        tied.append(tuple(state))
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


def _dense_rank(values):
    """Each value's rank among the distinct values, ascending, and their count: one argsort."""
    order = np.argsort(values)
    run, ranks = values[order], np.zeros(values.size, dtype=np.int64)
    np.cumsum(run[1:] != run[:-1], out=ranks[1:])
    dense = np.empty_like(ranks)
    dense[order] = ranks
    return dense, int(ranks[-1]) + 1


def _offsets(table, bound):
    """A table's entries less their least, as int64, and their span; ranked past bound.

    The subtraction runs in the table's dtype and is read back unsigned, so it stays
    exact for uint64 entries at or above 2^63 and for signed spans past the dtype.
    """
    column = table.ravel()
    lo = column.min()
    span = int(column.max()) - int(lo) + 1
    if span > bound:
        return _dense_rank(column)
    if lo:
        column = (column - lo).view(f"u{column.itemsize}")
    return column.astype(np.int64, copy=False), span


def _fold(columns, bound):
    """One int64 key per position, equal where the (offsets, span) columns' tuples are.

    key = key * span + offsets, ranked densely whenever the product of spans would
    reach 2^62 and at the end if it exceeds bound, so the key stays below bound.
    """
    key, span = columns[0]
    for offsets, width in columns[1:]:
        if span * width >= 1 << 62:
            key, span = _dense_rank(key)
        key, span = key * width + offsets, span * width
    return _dense_rank(key) if span > bound else (key, span)


def _tuple_ids(symbols, ids):
    """Number of the tuple of symbols the edges carry at each (x, y), x major.

    Tuples are numbered in order of first appearance of their folded key, so the
    numbers stay below 4^k whatever the symbols are.
    """
    bound = 4 * symbols[ids[0]].size
    key, _ = _fold([_offsets(symbols[eid], bound) for eid in ids], bound)
    return np.take(first_seen(key)[0], key)


def make_network_code(net, k, symbols, output):
    """Assemble a network code from its tables, deriving use counts.

    Each edge needs a (2^k, 2^k) integer table that its tail can compute, and the
    sink's output, the sum it decodes at each (x, y), one the sink can compute. A
    node computes a table that is a function of what it sees: x at s1, y at s2,
    and at any other node the symbols on its in-edges, folded into one key below 4^(k+1).
    """
    if k > MAX_EXHAUSTIVE_K:
        raise ZefcError("k_too_large", f"network codes are limited to k<={MAX_EXHAUSTIVE_K}", k=k)
    size, edges = 1 << k, net.edges
    tails = [tail for (_, tail, _), count in zip(LAYOUT, net.sizes) for _ in range(count)]
    # (name, the node that computes it, table): every edge, then the sink's output.
    tables = [*zip(edges, tails, map(symbols.get, edges)), (SINK, SINK, output)]
    for name, _, table in tables:
        shaped = isinstance(table, np.ndarray) and table.shape == (size, size)
        if not shaped or table.dtype.kind not in "iu":
            message = f"each edge and the sink's output need a {size}x{size} integer table"
            raise ZefcError("bad_network_code", message, table=name)
    bound = 4 * size * size
    offsets = {eid: _offsets(symbols[eid], bound) for eid in edges}
    keys = {v: _fold([offsets[eid] for eid in net.in_edges(v)], bound) for v in ("v1", "v2", SINK)}
    for name, node, table in tables:
        if node == "s1":  # one value per row
            computable = (table == table[:, :1]).all()
        elif node == "s2":  # one value per column
            computable = (table == table[:1]).all()
        else:  # one value per key
            (key, span), column = keys[node], table.ravel()
            value = np.empty(span, dtype=column.dtype)
            value[key] = column
            computable = not (value[key] != column).any()
        if not computable:
            raise ZefcError("bad_network_code", "a table must follow from what its node sees", table=name)
    # n is the most bits an edge's distinct symbols need. They are at most its span,
    # so edges are counted widest first, until no later one could need more.
    n = 0
    for column, span in sorted(offsets.values(), key=lambda pair: -pair[1]):
        if _bits_for(span) <= n:
            break
        n = max(n, _bits_for(int(np.count_nonzero(np.bincount(column)))))
    return KShotNetworkCode(net, k, {eid: symbols[eid] for eid in edges}, output, n)


def transform_code(code, caps):
    """Express a case-01 code as a network code over the matching network.

    The d edges carry balanced chunks of x and y, the v1->rho edges chunks of
    encoder 1's label and the v2->rho edges chunks of encoder 2's label.
    """
    if code.switches.as_string() != "01":
        message = "only case-01 codes have a network form"
        raise ZefcError("bad_switches", message, switches=code.switches.as_string())
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
        message = "declared image sizes disagree with the realized encoder images"
        raise ZefcError("bad_image_count", message, realized=realized)
    word_chunks = _chunk_layout(k, net.c1)
    label1_chunks = _chunk_layout(_bits_for(code.im1), net.c1)
    label2_chunks = _chunk_layout(_bits_for(code.im2), net.c2)
    if max(w for _, w in label1_chunks) > acct.n1 or max(w for _, w in label2_chunks) > acct.n2:
        raise ZefcError("image_over_budget", "encoder image does not fit the channel bundle")

    x, y = np.indices((size, size))
    symbols = {}
    for b, (values, chunks) in enumerate(
        zip((x, y, y, code.phi1, phi2), (word_chunks,) * 3 + (label1_chunks, label2_chunks))
    ):
        for eid, (offset, width) in zip(_bundle_ids(net, b, len(chunks)), chunks):
            symbols[eid] = (values >> offset) & ((1 << width) - 1)
    # The sink's symbols spell out the label pair, which decodes through psi.
    ncode = make_network_code(net, k, symbols, code.psi[code.phi1, phi2])
    if ncode.n != acct.n:
        message = "network and distributed use counts disagree"
        raise ZefcError("transform_rate_mismatch", message, network=ncode.n, distributed=acct.n)
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
    # but a code changed through _replace, or built directly, skips that check.
    if (psi[phi1, phi2] != ncode.output).any():
        raise ZefcError("bad_network_code", "the sink's output must follow from the label pair")
    return KShotCode(ncode.k, SwitchPair(0, 1), phi1, phi2, psi, *psi.shape, "inverse-transform")


def nontightness_report(caps):
    """Capacity vs the cut-set bound; the gap is positive exactly when c1 > c2."""
    net = build_network(caps)
    cap_value = capacity(SwitchPair(0, 1), caps).value
    bound = guang_bound(net)
    formula = cutset_bound_formula(caps)
    if bound.value != formula:
        message = "enumerated bound disagrees with the closed form"
        raise ZefcError("bound_mismatch", message, enumerated=bound.value, formula=formula)
    gap = bound.value - cap_value
    if (gap > 0) != (caps.c1 > caps.c2):
        message = "the bound must exceed the capacity exactly when c1 > c2"
        raise ZefcError("gap_sign_mismatch", message, gap=gap, caps=caps.as_strings())
    witness = (bound.witness, bound.witness_ncf)
    return NontightnessReport(cap_value, bound.value, formula, *witness, gap, sum(net.sizes))
