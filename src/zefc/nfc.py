"""Network view of the 01 case: the N(c1,c2) family, cut bounds, code transforms."""

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bitspace import binary_to_base3_table
from .capacity import CapacityQuery, capacity
from .codec import KShotCode, SwitchPair, rate_account
from .errors import ZefcError

LOG2_3 = math.log2(3)
MAX_NETWORK_EDGES = 2000
# Tie-break among cuts of least ratio. Networks up to this many edges report the
# one with fewest edges, first in edge order; larger ones report the one whose
# per-bundle edge counts come first in lexicographic order, so (5,3) reports
# e1..e5 although d1..d5 ties with it. The recorded `nfc` reports carry both
# rules, so unifying them would change that output.
EDGE_ORDER_WITNESS_EDGES = 20
MAX_TRANSFORM_K = 10
SOURCES = ("s1", "s2")
SINK = "rho"


@dataclass(frozen=True)
class Edge:
    """One unit-capacity directed edge."""

    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Network:
    """The two-source relay network with bundle multiplicities c1 and c2."""

    c1: int
    c2: int
    edges: tuple

    @property
    def nodes(self):
        return ("s1", "s2", "v1", "v2", SINK)

    @property
    def sources(self):
        return SOURCES

    @property
    def sink(self):
        return SINK

    def bundles(self):
        """Edge ids grouped by the five parallel bundles, in layout order."""
        return self._bundles

    def in_edges(self, node):
        return self._in_edges.get(node, ())

    # The lookups below are built once per network: the cut search and the
    # validation ask for them once per cut, state or edge. A dict lookup keyed by
    # the network itself would hash all of its edges each time.

    @functools.cached_property
    def _bundles(self):
        d = [e.id for e in self.edges if e.id.startswith("d")]
        e = [e.id for e in self.edges if e.id.startswith("e")]
        return (
            ("s1->v1", tuple(d[: self.c1])),
            ("s2->v1", tuple(d[self.c1 : 2 * self.c1])),
            ("s2->v2", tuple(d[2 * self.c1 :])),
            ("v1->rho", tuple(e[: self.c1])),
            ("v2->rho", tuple(e[self.c1 :])),
        )

    @functools.cached_property
    def _in_edges(self):
        groups = {}
        for e in self.edges:
            groups.setdefault(e.head, []).append(e)
        return {node: tuple(group) for node, group in groups.items()}

    @functools.cached_property
    def arc_of(self):
        """The (tail, head) pair of each edge id."""
        return {e.id: (e.tail, e.head) for e in self.edges}

    @functools.cached_property
    def arcs(self):
        """Number of parallel edges from each tail to each head."""
        return collections.Counter(self.arc_of.values())

    @functools.cached_property
    def position(self):
        """Index of each edge id in the edge order."""
        return {e.id: i for i, e in enumerate(self.edges)}

    @functools.cached_property
    def state_classes(self):
        """Classification of every bundle state, at most 3**5 of them.

        Kept because guang_bound calls n_cf once per state and every n_cf call
        looks up the states of its blocks.
        """
        counts = [sorted({0, 1, len(ids)}) for _, ids in self.bundles()]
        return {
            state: classify_cut(self, _state_cut(self, state))
            for state in itertools.product(*counts)
        }


@dataclass(frozen=True)
class CutClassification:
    """Source sets attached to an edge subset: disconnected, upstream-only, upstream."""

    cut: tuple
    i_c: frozenset
    j_c: frozenset
    k_c: frozenset

    @property
    def is_cut(self):
        return bool(self.i_c)


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    """A target function on one bit per source."""

    name: str
    value: Callable[[tuple], int]


ARITHMETIC_SUM = FunctionSpec(name="arithmetic_sum", value=lambda bits: bits[0] + bits[1])


@dataclass(frozen=True)
class GuangBound:
    """Minimum cut-size over class-count ratio, with its witness cut."""

    value: float
    witness: tuple
    witness_ncf: int
    cuts_seen: int


@dataclass(frozen=True, eq=False)
class KShotNetworkCode:
    """Per-edge local encoders plus a sink decoder, with realized use counts."""

    network: Network
    k: int
    theta: dict
    decoder: Callable[[tuple], int]
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
    if caps.c1 is None or caps.c1.denominator != 1 or caps.c2.denominator != 1:
        raise ZefcError("bad_caps", "edge multiplicities must be integers", caps=caps.as_strings())
    c1, c2 = int(caps.c1), int(caps.c2)
    if 4 * c1 + c2 > MAX_NETWORK_EDGES:
        raise ZefcError(
            "too_many_edges",
            f"networks are limited to {MAX_NETWORK_EDGES} edges",
            edges=4 * c1 + c2,
        )
    edges = []
    for i in range(c1):
        edges.append(Edge(f"d{i + 1}", "s1", "v1"))
    for i in range(c1):
        edges.append(Edge(f"d{c1 + i + 1}", "s2", "v1"))
    for i in range(c1):
        edges.append(Edge(f"d{2 * c1 + i + 1}", "s2", "v2"))
    for i in range(c1):
        edges.append(Edge(f"e{i + 1}", "v1", SINK))
    for i in range(c2):
        edges.append(Edge(f"e{c1 + i + 1}", "v2", SINK))
    net = Network(c1=c1, c2=c2, edges=tuple(edges))
    _validate_network(net)
    return net


def _validate_network(net):
    for s in net.sources:
        if net.in_edges(s):
            raise ZefcError("bad_network", "sources must have no incoming edges", node=s)
    if any(e.tail == net.sink for e in net.edges):
        raise ZefcError("bad_network", "the sink must have no outgoing edges")
    remaining = {e.id: e for e in net.edges}
    placed = set()
    while remaining:
        # An edge can be placed once every edge into its tail is placed.
        tails = {e.tail for e in remaining.values()}
        ready = {node for node in tails if all(f.id in placed for f in net.in_edges(node))}
        progress = [eid for eid, e in remaining.items() if e.tail in ready]
        if not progress:
            raise ZefcError("bad_network", "edge relation has a cycle")
        for eid in progress:
            placed.add(eid)
            del remaining[eid]
    for node in net.nodes:
        if node != net.sink and net.sink not in _reachable(net, frozenset(), node):
            raise ZefcError("bad_network", "every non-sink node must reach the sink", node=node)


def _reachable(net, removed, start):
    """Nodes reachable from start after deleting the removed edge ids.

    Parallel edges form one arc, which stays while any of its edges does, so the
    cost grows with the cut, not with the network.
    """
    cut = collections.Counter(map(net.arc_of.__getitem__, removed))
    arcs = [arc for arc, count in net.arcs.items() if count > cut[arc]]
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for tail, head in arcs:
            if tail == node and head not in seen:
                seen.add(head)
                frontier.append(head)
    return seen


def classify_cut(net, cut):
    """I/J/K source sets for an edge subset."""
    index = net.position
    for eid in cut:
        if eid not in index:
            raise ZefcError("unknown_edge", "edge id is not part of this network", id=eid)
    canonical = tuple(sorted(set(cut), key=index.__getitem__))
    removed = frozenset(canonical)
    i_c = frozenset(s for s in net.sources if net.sink not in _reachable(net, removed, s))
    tails = {net.arc_of[eid][0] for eid in removed}
    k_c = frozenset(s for s in net.sources if tails & _reachable(net, frozenset(), s))
    return CutClassification(cut=canonical, i_c=i_c, j_c=k_c - i_c, k_c=k_c)


def _class_product(fn, sources, blocks_i, j_list, leftover, rest, a_j, a_l):
    """Product over blocks of the number of distinguishable source assignments."""
    prod = 1
    for li, group in enumerate(blocks_i):
        others = [b for j, b in enumerate(blocks_i) if j != li]
        keys = set()
        for bits in itertools.product((0, 1), repeat=len(group)):
            sig = []
            for choice in itertools.product(
                *[list(itertools.product((0, 1), repeat=len(o))) for o in others]
            ):
                assign = dict(zip(group, bits))
                for o, ch in zip(others, choice):
                    assign.update(zip(o, ch))
                assign.update(zip(leftover, a_l))
                assign.update(zip(j_list, a_j))
                for d in itertools.product((0, 1), repeat=len(rest)):
                    assign.update(zip(rest, d))
                    sig.append(fn.value(tuple(assign[s] for s in sources)))
            keys.add(tuple(sig))
        prod *= len(keys)
    return prod


@functools.lru_cache(maxsize=None)
def _structure_count(fn, sources, blocks_i, j_list, leftover, rest):
    """Best class product over side-context values, by source-set structure alone."""
    best = 0
    for a_j in itertools.product((0, 1), repeat=len(j_list)):
        for a_l in itertools.product((0, 1), repeat=len(leftover)):
            best = max(
                best, _class_product(fn, sources, blocks_i, j_list, leftover, rest, a_j, a_l)
            )
    return best


def _cut_state(net, cut):
    """Per-bundle state of a cut: 0 untouched, 1 partly cut, the bundle size if fully cut.

    classify_cut reads nothing else, and each state is also the per-bundle edge count
    of its smallest cut.
    """
    cut = set(cut)
    state = []
    for _, ids in net.bundles():
        count = sum(eid in cut for eid in ids)
        state.append(count if count in (0, len(ids)) else 1)
    return tuple(state)


def _state_cut(net, state):
    """Smallest cut in a bundle state: a partly cut bundle's first edge, a fully cut one's all."""
    return tuple(eid for (_, ids), count in zip(net.bundles(), state) for eid in ids[:count])


def _splits(count, size):
    """Ways one bundle's share of a cut divides between two blocks, as block states.

    A partly cut bundle goes wholly to one block: splitting it too would only widen
    the other block's K set. A fully cut bundle of two or more edges may also leave
    both blocks partly cut.
    """
    if count == 0:
        return ((0, 0),)
    if count == size > 1:
        return ((count, 0), (0, count), (1, 1))
    return ((count, 0), (0, count))


def n_cf(net, cls, fn=ARITHMETIC_SUM):
    """Best class-tuple count over strong partitions and side contexts."""
    if isinstance(cls, (tuple, list, set, frozenset)):
        cls = classify_cut(net, tuple(cls))
    if not cls.is_cut:
        raise ZefcError("not_a_cut", "the class count is defined for cut sets only")
    classes = net.state_classes
    sources = net.sources
    i_set, j_list = cls.i_c, tuple(sorted(cls.j_c))
    rest = tuple(s for s in sources if s not in cls.k_c)

    def score(block_infos):
        blocks_i = tuple(tuple(sorted(info.i_c)) for info in block_infos)
        covered = {s for b in blocks_i for s in b}
        leftover = tuple(sorted(s for s in i_set if s not in covered))
        return _structure_count(fn, sources, blocks_i, j_list, leftover, rest)

    best = score([cls])
    sizes = [len(ids) for _, ids in net.bundles()]
    state = _cut_state(net, cls.cut)
    for split in itertools.product(*[_splits(c, s) for c, s in zip(state, sizes)]):
        one = classes[tuple(a for a, _ in split)]
        two = classes[tuple(b for _, b in split)]
        if not one.i_c or not two.i_c:
            continue
        if (one.i_c & two.k_c) or (two.i_c & one.k_c):
            continue
        best = max(best, score([one, two]))
    return best


def guang_bound(net, fn=ARITHMETIC_SUM):
    """Minimum |C| / log2(n_cf) over all cut sets.

    Cuts in one bundle state share n_cf, so the minimum is reached at the smallest
    cut of some state, and only those are scored.
    """
    classes = net.state_classes
    states = list(classes)
    if len(net.edges) <= EDGE_ORDER_WITNESS_EDGES:
        index = net.position
        states.sort(key=lambda st: (sum(st), [index[eid] for eid in _state_cut(net, st)]))
    best, witness, witness_ncf, seen = None, None, None, 0
    for state in states:
        cls = classes[state]
        if not cls.is_cut:
            continue
        count = n_cf(net, cls, fn)
        if count <= 1:
            continue
        seen += 1
        ratio = sum(state) / math.log2(count)
        if best is None or ratio < best - 1e-12:
            best, witness, witness_ncf = ratio, cls.cut, count
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
    layout, offset = [], 0
    for w in widths:
        layout.append((offset, w))
        offset += w
    return layout


def _bits_for(count):
    return (count - 1).bit_length() if count > 1 else 0


def make_network_code(net, k, theta, decoder):
    """Assemble a network code, deriving realized per-edge use counts."""
    if k > MAX_TRANSFORM_K:
        raise ZefcError("k_too_large", f"network codes are limited to k<={MAX_TRANSFORM_K}", k=k)
    g = global_functions(net, k, theta)
    size = 1 << k
    images = {eid: set() for eid in g}
    for x in range(size):
        for y in range(size):
            for eid, fn in g.items():
                images[eid].add(fn(x, y))
    n_e = {eid: _bits_for(len(values)) for eid, values in images.items()}
    return KShotNetworkCode(
        network=net, k=k, theta=dict(theta), decoder=decoder, n_e=n_e, n=max(n_e.values())
    )


def global_functions(net, k, theta):
    """Compose local encoders into end-to-end per-edge functions of (x, y)."""
    g = {}

    def for_edge(edge):
        if edge.id in g:
            return g[edge.id]
        fn = theta[edge.id]
        if edge.tail == "s1":
            g[edge.id] = lambda x, y, fn=fn: fn(x)
        elif edge.tail == "s2":
            g[edge.id] = lambda x, y, fn=fn: fn(y)
        else:
            feeders = [for_edge(e) for e in net.in_edges(edge.tail)]
            g[edge.id] = lambda x, y, fn=fn, fs=tuple(feeders): fn(tuple(f(x, y) for f in fs))
        return g[edge.id]

    for edge in net.edges:
        for_edge(edge)
    return g


def transform_code(code, caps):
    """Express a case-01 code as a network code over the matching network."""
    if code.switches.as_string() != "01":
        raise ZefcError(
            "bad_switches",
            "only case-01 codes have a network form",
            switches=code.switches.as_string(),
        )
    if code.k > MAX_TRANSFORM_K:
        raise ZefcError("k_too_large", f"network codes are limited to k<={MAX_TRANSFORM_K}", k=code.k)
    net = build_network(caps)
    c1, c2 = net.c1, net.c2
    k = code.k
    acct = rate_account(code, caps)
    # Encoder 2 of a case-01 code reads y alone, so its table is any one row.
    realized = (np.unique(code.phi1).size, np.unique(code.phi2[0]).size)
    if realized != (code.im1, code.im2):
        raise ZefcError(
            "bad_image_count",
            "declared image sizes disagree with the realized encoder images",
            realized=realized,
        )
    phi1, phi2, psi = code.phi1.tolist(), code.phi2[0].tolist(), code.psi.tolist()
    word_chunks = _chunk_layout(k, c1)
    label1_chunks = _chunk_layout(_bits_for(code.im1), c1)
    label2_chunks = _chunk_layout(_bits_for(code.im2), c2)
    if max(w for _, w in label1_chunks) > acct.n1 or max(w for _, w in label2_chunks) > acct.n2:
        raise ZefcError("image_over_budget", "encoder image does not fit the channel bundle")

    def chunk(value, layout, i):
        offset, width = layout[i]
        return (value >> offset) & ((1 << width) - 1)

    def assemble(symbols, layout):
        return sum(s << layout[i][0] for i, s in enumerate(symbols))

    theta = {}
    bundles = dict(net.bundles())
    for i, eid in enumerate(bundles["s1->v1"]):
        theta[eid] = lambda x, i=i: chunk(x, word_chunks, i)
    for i, eid in enumerate(bundles["s2->v1"]):
        theta[eid] = lambda y, i=i: chunk(y, word_chunks, i)
    for i, eid in enumerate(bundles["s2->v2"]):
        theta[eid] = lambda y, i=i: chunk(y, word_chunks, i)

    def v1_label(incoming):
        x = assemble(incoming[:c1], word_chunks)
        y = assemble(incoming[c1:], word_chunks)
        return phi1[x][y]

    def v2_label(incoming):
        return phi2[assemble(incoming, word_chunks)]

    for i, eid in enumerate(bundles["v1->rho"]):
        theta[eid] = lambda incoming, i=i: chunk(v1_label(incoming), label1_chunks, i)
    for i, eid in enumerate(bundles["v2->rho"]):
        theta[eid] = lambda incoming, i=i: chunk(v2_label(incoming), label2_chunks, i)

    def decoder(symbols):
        a = assemble(symbols[:c1], label1_chunks)
        b = assemble(symbols[c1:], label2_chunks)
        if a >= code.im1 or b >= code.im2:
            return 0
        return psi[a][b]

    ncode = make_network_code(net, k, theta, decoder)
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
    k = ncode.k
    net = ncode.network
    g = global_functions(net, k, ncode.theta)
    sink_feed = [g[e.id] for e in net.in_edges(net.sink)]
    t3 = binary_to_base3_table(k)
    size = 1 << k
    for x in range(size):
        for y in range(size):
            got = ncode.decoder(tuple(f(x, y) for f in sink_feed))
            if got != t3[x] + t3[y]:
                return False
    return True


def inverse_transform(ncode):
    """Recover a two-encoder code from a network code's sink-facing functions."""
    net = ncode.network
    k = ncode.k
    g = global_functions(net, k, ncode.theta)
    bundles = dict(net.bundles())
    wide = [g[eid] for eid in bundles["v1->rho"]]
    narrow = [g[eid] for eid in bundles["v2->rho"]]
    size = 1 << k
    # Each distinct tuple of symbols on a bundle is one label, numbered first seen.
    label1, label2 = {}, {}
    phi1, phi2 = [], {}
    for x in range(size):
        for y in range(size):
            phi1.append(label1.setdefault(tuple(f(x, y) for f in wide), len(label1)))
            b = label2.setdefault(tuple(f(x, y) for f in narrow), len(label2))
            if phi2.setdefault(y, b) != b:
                raise ZefcError(
                    "bad_network_code", "the narrow-channel message must not depend on x"
                )
    psi = [[ncode.decoder(t1 + t2) for t2 in label2] for t1 in label1]
    return KShotCode(
        k=k,
        switches=SwitchPair(0, 1),
        phi1=np.array(phi1, dtype=np.int64).reshape(size, size),
        phi2=np.broadcast_to(np.array([phi2[y] for y in range(size)])[None, :], (size, size)),
        psi=np.array(psi, dtype=np.int64),
        im1=len(label1),
        im2=len(label2),
        name="inverse-transform",
    )


def network_to_json(net):
    """Plain JSON form of the node and edge structure."""
    return {
        "nodes": list(net.nodes),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in net.edges],
    }


def nontightness_report(caps, fn=ARITHMETIC_SUM):
    """Capacity vs the cut-set bound; the gap is positive exactly when c1 > c2."""
    net = build_network(caps)
    query = CapacityQuery(SwitchPair(0, 1), caps, "arithmetic_sum")
    cap_value = capacity(query).value
    bound = guang_bound(net, fn)
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
        edges=len(net.edges),
    )
