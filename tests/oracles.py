"""Independent reference implementations used to cross-check the package.

Everything here works on plain tuples and sets: no packed integers, no bitmask
tricks, no imports from zefc.  Intentionally slow and obvious.  The one
exception is mixed_min_pair_scan, a numpy scan of every ternary pair at k <= 8,
where raw sets would take hours.
"""

import itertools
import math

import numpy as np

LOG2_3 = math.log2(3)


def all_words(radix, k):
    """All length-k words over {0..radix-1} as tuples, position 1 first."""
    return [t[::-1] for t in itertools.product(range(radix), repeat=k)]


def tuple_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def raw_sumset(m, l):
    """Set of all pairwise componentwise sums."""
    return {tuple_add(a, b) for a in m for b in l}


def chromatic_number(vertices, adjacent):
    """Exact chromatic number by backtracking over color counts from a greedy clique's size up."""
    vertices = list(vertices)
    if not vertices:
        return 0

    def colorable(ncolors):
        assign = {}

        def place(i):
            if i == len(vertices):
                return True
            v = vertices[i]
            used = {assign[u] for u in assign if adjacent(u, v)}
            for c in range(ncolors):
                if c not in used:
                    assign[v] = c
                    if place(i + 1):
                        return True
                    del assign[v]
            return False

        return place(0)

    # A clique needs one color per vertex, so no count below its size can succeed.
    clique = []
    for v in vertices:
        if all(adjacent(u, v) for u in clique):
            clique.append(v)
    n = len(clique)
    while not colorable(n):
        n += 1
    return n


def conflict_chromatic(m, l):
    """Chromatic number of the materialized conflict structure on m x l."""
    verts = [(a, b) for a in m for b in l]

    def adjacent(u, v):
        return tuple_add(*u) != tuple_add(*v)

    return chromatic_number(verts, adjacent)


def converse_envelope(k, c1, c2, t):
    """Channel uses a case-01 code needs at block length k if encoder 2 sends t bits.

    Two branches: encoder 1 carries the k*log2(3) bits of the sum less the
    (log2(3) - 1)*t that encoder 2's t bits settle, and encoder 2 carries its t bits.
    """
    return max((k * LOG2_3 - (LOG2_3 - 1) * t) / c1, t / c2)


def qk_bruteforce(k, l):
    """Exact minimum |A^k + L| over size-l subsets, with the first witness."""
    words = all_words(2, k)
    if l == 0:
        return 0, ()
    best, wit = None, None
    for subset in itertools.combinations(words, l):
        size = len(raw_sumset(words, subset))
        if best is None or size < best:
            best, wit = size, subset
    return best, wit


def aitch_violations(tau, l_max):
    """Every split l = la + lb, lb <= la, with 2*h(la) + h(lb) < 2*h(l) - 1e-9, in scan order.

    h(l) = l^tau with h(0) = 0; returns (l, la, lb, lhs, rhs) tuples.
    """

    def h(l):
        return math.pow(l, tau) if l else 0.0

    found = []
    for l in range(1, l_max + 1):
        rhs = 2 * h(l)
        for lb in range(l // 2 + 1):
            lhs = 2 * h(l - lb) + h(lb)
            if lhs < rhs - 1e-9:
                found.append((l, l - lb, lb, lhs, rhs))
    return found


def sumset_bound_oracle(k):
    """Exhaustive 2^k * h(l) check over every nonempty subset, one subset at a time.

    Subset mask bit y picks the y-th word of all_words(2, k). Returns the
    violations as (mask, l, size), and per power-of-two l the subsets meeting
    the bound with equality, as digit strings, in mask order.
    """
    words = all_words(2, k)

    def bound(l):
        if l & (l - 1) == 0:
            j = l.bit_length() - 1
            return 3**j * 2 ** (k - j)
        return math.ceil(2**k * l ** (LOG2_3 - 1) - 1e-9)

    violations, equalities = [], {}
    for mask in range(1, 1 << len(words)):
        subset = [w for y, w in enumerate(words) if (mask >> y) & 1]
        l, size = len(subset), len(raw_sumset(words, subset))
        if size < bound(l):
            violations.append((mask, l, size))
        elif l & (l - 1) == 0 and size == bound(l):
            equalities.setdefault(l, []).append(["".join(map(str, w)) for w in subset])
    return violations, dict(sorted(equalities.items()))


def slice_identity_holds(k):
    """|A^k + L| = |S0| + |S1| + |S0 | S1| for every L in {0,1}^k, checked one L at a time.

    S_b = A^(k-1) + L_b, where L_b holds the first k - 1 digits of the words of L
    whose last digit is b.
    """
    words, shorter = all_words(2, k), all_words(2, k - 1)
    for r in range(len(words) + 1):
        for subset in itertools.combinations(words, r):
            s0, s1 = (raw_sumset(shorter, [w[:-1] for w in subset if w[-1] == b]) for b in (0, 1))
            if len(raw_sumset(words, subset)) != len(s0) + len(s1) + len(s0 | s1):
                return False
    return True


def prefix_sizes(k):
    """|A^k + L| for L the first l words of all_words(2, k), l = 0..2^k, one union at a time.

    A^k + w is the product of the digit sets {w_i, w_i + 1}.
    """
    sums, sizes = set(), [0]
    for word in all_words(2, k):
        sums.update(itertools.product(*[(d, d + 1) for d in word]))
        sizes.append(len(sums))
    return sizes


def prefix_certificate(k):
    """Every split failing 2*P_(j-1)(la) + P_(j-1)(lb) >= P_j(la + lb), as (j, l, la, lb).

    P_j is prefix_sizes(j), for each j = 1..k; the splits are la >= lb with
    la <= 2^(j-1), over every l <= 2^j.
    """
    failed, below = [], prefix_sizes(0)
    for j in range(1, k + 1):
        sizes = prefix_sizes(j)
        for l in range(1, len(sizes)):
            for lb in range(l // 2 + 1):
                la = l - lb
                if la < len(below) and 2 * below[la] + below[lb] < sizes[l]:
                    failed.append((j, l, la, lb))
        below = sizes
    return failed


def set_partitions(items):
    """All set partitions of a list, blocks in first-seen order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def growth_partitions(items):
    """All set partitions of a list, in lexicographic order of their restricted growth strings.

    The string a puts items[i] in block a[i]: a[0] = 0, and each a[i] is at most
    one more than the largest entry before it. Blocks are listed by first item.
    """

    def strings(prefix):
        if len(prefix) == len(items):
            yield prefix
            return
        for a in range(max(prefix, default=-1) + 2):
            yield from strings(prefix + [a])

    for a in strings([]):
        blocks = [[] for _ in range(max(a, default=-1) + 1)]
        for item, j in zip(items, a):
            blocks[j].append(item)
        yield blocks


def chim_bruteforce(k):
    """Map m -> min over m-block partitions of A^k of the max block sumset size."""
    words = all_words(2, k)
    best = {}
    for part in set_partitions(words):
        m = len(part)
        value = max(len(raw_sumset(words, block)) for block in part)
        if m not in best or value < best[m]:
            best[m] = value
    return dict(sorted(best.items()))


def mixed_min_pair_bruteforce(k):
    """Min over distinct ternary pairs of |A^k + {y1, y2}|, raw sets."""
    binary = all_words(2, k)
    ternary = all_words(3, k)
    best, wit = None, None
    for y1, y2 in itertools.combinations(ternary, 2):
        size = len(raw_sumset(binary, [y1]) | raw_sumset(binary, [y2]))
        if best is None or size < best:
            best, wit = size, (y1, y2)
    return best, wit


def mixed_min_pair_scan(k):
    """Min over distinct ternary pairs of |A^k + {y1, y2}| and the first pair reaching it, k <= 8.

    |A^k + {y1, y2}| = 2^(k+1) - M_k[y1, y2], where the overlap matrix M_k, over
    packed words, is the Kronecker power of [[2,1,0],[1,2,1],[0,1,2]]. Rows go
    in blocks of 3^j that share their high word hi, each block the columns from
    3^j * hi on; a block replaces the best only when strictly larger, so the pair
    is the first maximum of M_k above the diagonal in row-major order. Returns
    (value, (y1, y2)) with the words as digit strings, position 1 first.
    """
    overlap = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=np.int16)

    def power(n):
        out = np.ones((1, 1), dtype=np.int16)
        for _ in range(n):
            out = np.kron(overlap, out)
        return out

    j = min(k, 4)
    rows = 3**j
    low, high = power(j), power(k - j)
    not_above = np.tril(np.ones((rows, rows), dtype=bool))
    best, pair = -1, None
    for hi in range(len(high)):
        block = (low[:, None, :] * high[hi, hi:][:, None]).reshape(rows, -1)
        block[:, :rows][not_above] = -1
        row, col = divmod(int(block.argmax()), block.shape[1])
        if block[row, col] > best:
            best, pair = int(block[row, col]), (hi * rows + row, hi * rows + col)
    return (1 << (k + 1)) - best, tuple(digit_string(y, k, 3) for y in pair)


# --- slow serializer for k-shot codes ------------------------------------------


def digit_string(value, k, radix):
    """The k base-radix digits of value, position 1 first."""
    out = []
    for _ in range(k):
        out.append(str(value % radix))
        value //= radix
    return "".join(out)


def first_seen_order(labels):
    """{label: its rank among the distinct labels in order of first appearance}."""
    order = {}
    for label in labels:
        order.setdefault(label, len(order))
    return order


def first_seen_tuples(columns):
    """Tuples of the columns' values at each position, numbered by first appearance.

    Returns the number at each position and the distinct tuples in that order.
    """
    rows = list(zip(*columns))
    order = first_seen_order(rows)
    return [order[row] for row in rows], list(order)


def code_to_json_oracle(k, switches, phi1, phi2, psi, im1, im2):
    """JSON form of a code given as closures, one (x, y) pair at a time.

    switches is the two-character case string; phi1(x, y), phi2(x, y) and psi(a, b)
    work on packed integer words. Labels are renumbered in first-seen order over
    ascending sweeps: encoder 1 over x, then y if it sees y; encoder 2 over y, then
    x if it sees x.
    """
    size = 1 << k
    sees_x, sees_y = switches[0] == "1", switches[1] == "1"
    order1 = first_seen_order(
        phi1(x, y) for x in range(size) for y in (range(size) if sees_y else (0,))
    )
    order2 = first_seen_order(
        phi2(x, y) for y in range(size) for x in (range(size) if sees_x else (0,))
    )
    assert (len(order1), len(order2)) == (im1, im2), "declared image sizes differ"

    phi1_table = {}
    for x in range(size):
        xs = digit_string(x, k, 2)
        if sees_y:
            for y in range(size):
                phi1_table[f"{xs},{digit_string(y, k, 2)}"] = order1[phi1(x, y)]
        else:
            phi1_table[xs] = order1[phi1(x, 0)]
    phi2_table = {}
    for y in range(size):
        ys = digit_string(y, k, 2)
        if sees_x:
            for x in range(size):
                phi2_table[f"{digit_string(x, k, 2)},{ys}"] = order2[phi2(x, y)]
        else:
            phi2_table[ys] = order2[phi2(0, y)]
    old1 = {new: old for old, new in order1.items()}
    old2 = {new: old for old, new in order2.items()}
    psi_table = {
        f"{a},{b}": digit_string(psi(old1[a], old2[b]), k, 3)
        for a in range(im1)
        for b in range(im2)
    }
    return {
        "k": k,
        "switches": switches,
        "phi1": phi1_table,
        "phi2": phi2_table,
        "psi": psi_table,
        "images": [im1, im2],
    }



def printed_code_admissible(doc):
    """True when a printed code's tables decode x + y digit by digit for all 4^k pairs.

    doc is the `code` object of a `construct` report: phi1 and phi2 map "x,y" (or
    the one word an encoder reads) to a label, psi maps "a,b" label pairs to a
    ternary digit string, and words are digit strings, position 1 first.
    """
    try:
        k, switches = doc["k"], doc["switches"]
        im1, im2 = doc["images"]
        sees_y, sees_x = switches[1] == "1", switches[0] == "1"
        words = ["".join(t) for t in itertools.product("01", repeat=k)]
        for name, paired, im in (("phi1", sees_y, im1), ("phi2", sees_x, im2)):
            if len(doc[name]) != len(words) ** (2 if paired else 1):
                return False
            if any(not 0 <= label < im for label in doc[name].values()):
                return False
        for xs in words:
            for ys in words:
                a = doc["phi1"][f"{xs},{ys}" if sees_y else xs]
                b = doc["phi2"][f"{xs},{ys}" if sees_x else ys]
                want = "".join(str(int(u) + int(v)) for u, v in zip(xs, ys))
                if doc["psi"][f"{a},{b}"] != want:
                    return False
    except (KeyError, TypeError, ValueError):
        return False
    return True

# --- independent network-side oracle -----------------------------------------

NET_SOURCES = ("s1", "s2")


def net_edges(c1, c2):
    """Edge list (id, tail, head) for the two-relay sum network."""
    edges = []
    for i in range(c1):
        edges.append((f"d{i + 1}", "s1", "v1"))
    for i in range(c1):
        edges.append((f"d{c1 + i + 1}", "s2", "v1"))
    for i in range(c1):
        edges.append((f"d{2 * c1 + i + 1}", "s2", "v2"))
    for i in range(c1):
        edges.append((f"e{i + 1}", "v1", "rho"))
    for i in range(c2):
        edges.append((f"e{c1 + i + 1}", "v2", "rho"))
    return edges


def reachable(edges, removed, start):
    adj = {}
    for eid, tail, head in edges:
        if eid not in removed:
            adj.setdefault(tail, []).append(head)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj.get(u, []):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def classify(edges, cut):
    """(I, J, K) source sets for an edge subset."""
    cut = frozenset(cut)
    i_c = frozenset(s for s in NET_SOURCES if "rho" not in reachable(edges, cut, s))
    tails = {tail for eid, tail, head in edges if eid in cut}
    k_c = frozenset(s for s in NET_SOURCES if tails & reachable(edges, frozenset(), s))
    return i_c, k_c - i_c, k_c


def class_count_oracle(edges, cut, fn=lambda bits: bits[0] + bits[1]):
    """Equivalence-class bound value for a cut, straight from the definitions.

    Enumerates every set partition of the cut (no block-count shortcut), keeps
    those whose blocks each disconnect a nonempty, mutually non-upstream source
    set, and maximizes the class-tuple count over partitions and side contexts.
    """
    i_c, j_c, _ = classify(edges, cut)
    assert i_c, "not a cut"
    i_list = sorted(i_c)
    j_list = sorted(j_c)
    rest = [s for s in NET_SOURCES if s not in i_c and s not in j_c]

    def assemble(assign):
        return tuple(assign[s] for s in NET_SOURCES)

    best = 0
    for part in set_partitions(sorted(cut)):
        infos = [classify(edges, block) for block in part]
        if any(not info[0] for info in infos):
            continue
        if any(i != j and (infos[i][0] & infos[j][2]) for i in range(len(part)) for j in range(len(part))):
            continue
        block_sources = [sorted(info[0]) for info in infos]
        covered = set().union(*[set(b) for b in block_sources])
        leftover = [s for s in i_list if s not in covered]
        for a_j in itertools.product((0, 1), repeat=len(j_list)):
            for a_l in itertools.product((0, 1), repeat=len(leftover)):
                prod = 1
                for li, group in enumerate(block_sources):
                    others = [block_sources[j] for j in range(len(block_sources)) if j != li]

                    def key(b):
                        sig = []
                        other_choices = itertools.product(
                            *[list(itertools.product((0, 1), repeat=len(o))) for o in others]
                        )
                        for choice in other_choices:
                            assign = dict(zip(group, b))
                            for o, ch in zip(others, choice):
                                assign.update(zip(o, ch))
                            assign.update(zip(leftover, a_l))
                            assign.update(zip(j_list, a_j))
                            for d in itertools.product((0, 1), repeat=len(rest)):
                                assign.update(zip(rest, d))
                                sig.append(fn(assemble(assign)))
                        return tuple(sig)

                    prod *= len({key(b) for b in itertools.product((0, 1), repeat=len(group))})
                if prod > best:
                    best = prod
    return best


def guang_bound_oracle(c1, c2, max_cut_size=None):
    """Min |C| / log2(class count) over every cut set, no pruning."""
    edges = net_edges(c1, c2)
    ids = [e[0] for e in edges]
    best, wit = None, None
    top = max_cut_size or len(ids)
    for r in range(1, top + 1):
        for cut in itertools.combinations(ids, r):
            i_c, _, _ = classify(edges, cut)
            if not i_c:
                continue
            value = class_count_oracle(edges, cut)
            ratio = len(cut) / math.log2(value)
            if best is None or ratio < best - 1e-12:
                best, wit = ratio, cut
    return best, wit


def network_admissible_oracle(k, sink_tables, decoder):
    """Whether a sink decodes the componentwise sum, one (x, y) pair at a time.

    sink_tables[i][x][y] is the symbol the i-th edge into the sink carries for the
    k-bit words x and y (nested lists); decoder maps each tuple of sink symbols to
    a packed base-3 sum. A tuple the decoder lacks decodes to nothing.
    """
    for x in range(1 << k):
        for y in range(1 << k):
            symbols = tuple(table[x][y] for table in sink_tables)
            want = sum((((x >> i) & 1) + ((y >> i) & 1)) * 3**i for i in range(k))
            if decoder.get(symbols) != want:
                return False
    return True
