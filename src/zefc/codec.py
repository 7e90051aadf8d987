"""k-shot codes for two-encoder sum compression: constructions, checking, rates."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .bitspace import binary_to_base3_table, embed_base3, word_from_string, word_to_string
from .errors import ZefcError
from ._parallel import chunked_map, split_range

MAX_EXHAUSTIVE_K = 10
MAX_CAP_DENOMINATOR = 64
_TABLE_K = 20


@dataclass(frozen=True)
class SwitchPair:
    """Side-information switches: s2=1 lets encoder 1 see y, s1=1 lets encoder 2 see x."""

    s1: int
    s2: int

    def __post_init__(self):
        if self.s1 not in (0, 1) or self.s2 not in (0, 1):
            raise ZefcError("bad_switches", "switches must each be 0 or 1", s1=self.s1, s2=self.s2)

    @classmethod
    def from_string(cls, text):
        if not isinstance(text, str) or len(text) != 2 or any(c not in "01" for c in text):
            raise ZefcError("bad_switches", "expected a two-character string over {0,1}", value=text)
        return cls(int(text[0]), int(text[1]))

    def as_string(self):
        return f"{self.s1}{self.s2}"

    def dominates(self, other):
        return self.s1 >= other.s1 and self.s2 >= other.s2


def _parse_cap(text):
    """Parse one capacity: 'p/q', a decimal, or 'inf' for unbounded."""
    if isinstance(text, Fraction):
        return text
    if text is None:
        return None
    s = str(text).strip()
    if s.lower() in ("inf", "infinity", "unbounded"):
        return None
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ZefcError("bad_caps", "capacity must be a positive rational, decimal, or 'inf'", value=s)


@dataclass(frozen=True)
class ChannelCaps:
    """Per-channel bit budgets, normalized so c1 >= c2; c1=None means unbounded."""

    c1: Optional[Fraction]
    c2: Fraction
    swapped: bool = False

    def __post_init__(self):
        for name, cap in (("c1", self.c1), ("c2", self.c2)):
            if cap is None:
                continue
            if not isinstance(cap, Fraction) or cap <= 0:
                raise ZefcError("bad_caps", "capacities must be positive", **{name: str(cap)})
            if cap.denominator > MAX_CAP_DENOMINATOR:
                raise ZefcError(
                    "bad_caps",
                    f"capacity denominators are capped at {MAX_CAP_DENOMINATOR}",
                    **{name: str(cap)},
                )
        if self.c2 is None:
            raise ZefcError("bad_caps", "at most one capacity may be unbounded")
        if self.c1 is not None and self.c1 < self.c2:
            raise ZefcError("bad_caps", "caps must be normalized with c1 >= c2 (use ChannelCaps.of)")

    @classmethod
    def of(cls, c1, c2):
        a, b = _parse_cap(c1), _parse_cap(c2)
        if a is None and b is None:
            raise ZefcError("bad_caps", "at most one capacity may be unbounded")
        if a is None:
            return cls(None, b)
        if b is None:
            return cls(None, a, swapped=True)
        if a < b:
            return cls(b, a, swapped=True)
        return cls(a, b)

    def require_bounded(self):
        if self.c1 is None:
            raise ZefcError("unbounded_cap", "this construction needs both capacities bounded")
        return self

    def as_strings(self):
        return ("inf" if self.c1 is None else str(self.c1), str(self.c2))


@dataclass(frozen=True, eq=False)
class KShotCode:
    """A k-shot code: encoders phi1/phi2 and decoder psi over packed integer words."""

    k: int
    switches: SwitchPair
    phi1: Callable[[int, int], int]
    phi2: Callable[[int, int], int]
    psi: Callable[[int, int], int]
    im1: int
    im2: int
    name: str


@dataclass(frozen=True)
class AdmissibilityResult:
    """Outcome of an exhaustive decoding check over all 4^k input pairs."""

    ok: bool
    pairs_checked: int
    counterexample: Optional[dict] = None


@dataclass(frozen=True)
class RateAccount:
    """Channel uses per encoder and the resulting rate k/n."""

    n1: int
    n2: int
    n: int
    rate: Fraction


def _to_base3(k):
    """Binary word -> componentwise base-3 embedding, table-backed for small k."""
    if k <= _TABLE_K:
        table = binary_to_base3_table(k)
        return lambda v: table[v]
    return lambda v: embed_base3(v, k)


def check_admissible(code, threads=None):
    """Exhaustively verify psi(phi1, phi2) = x + y over all pairs, k <= 10."""
    if code.k > MAX_EXHAUSTIVE_K:
        raise ZefcError(
            "k_too_large",
            f"exhaustive admissibility checking is limited to k<={MAX_EXHAUSTIVE_K}",
            k=code.k,
        )
    k = code.k
    size = 1 << k
    to3 = _to_base3(k)
    phi1, phi2, psi = code.phi1, code.phi2, code.psi

    def scan(span):
        start, stop = span
        for x in range(start, stop):
            x3 = to3(x)
            for y in range(size):
                want = x3 + to3(y)
                if psi(phi1(x, y), phi2(x, y)) != want:
                    return x, y, want
        return None

    chunks = split_range(size, min(size, 8))
    for hit in chunked_map(scan, chunks, threads):
        if hit is not None:
            x, y, want = hit
            got = psi(phi1(x, y), phi2(x, y))
            return AdmissibilityResult(
                ok=False,
                pairs_checked=size * size,
                counterexample={
                    "x": word_to_string(x, k, 2),
                    "y": word_to_string(y, k, 2),
                    "expected": word_to_string(want, k, 3),
                    "decoded": word_to_string(got, k, 3),
                },
            )
    return AdmissibilityResult(ok=True, pairs_checked=size * size)


def least_uses(image_size, cap):
    """Least n >= 0 with 2^(n*cap) >= image_size, by exact integer comparison."""
    if image_size < 1:
        raise ZefcError("empty_image", "encoder image must be nonempty", size=image_size)
    if image_size == 1 or cap is None:
        return 0
    p, q = cap.numerator, cap.denominator
    target = image_size ** q

    def enough(n):
        return (1 << (n * p)) >= target

    n = max(0, math.floor(math.log2(image_size) / float(cap)) - 2)
    while not enough(n):
        n += 1
    while n > 0 and enough(n - 1):
        n -= 1
    return n


def rate_account(code, caps):
    """Channel uses n1, n2 and rate k/max(n1,n2) for an admissible code."""
    n1 = least_uses(code.im1, caps.c1)
    n2 = least_uses(code.im2, caps.c2)
    n = max(n1, n2)
    if n < 1:
        raise ZefcError(
            "degenerate_code", "sum computation cannot make both images singletons", k=code.k
        )
    return RateAccount(n1=n1, n2=n2, n=n, rate=Fraction(code.k, n))


def build_identity_code(k):
    """Case-00 code: each encoder forwards its own word unchanged."""
    if k < 1:
        raise ZefcError("bad_k", "block length must be at least 1", k=k)
    to3 = _to_base3(k)
    return KShotCode(
        k=k,
        switches=SwitchPair(0, 0),
        phi1=lambda x, y: x,
        phi2=lambda x, y: y,
        psi=lambda a, b: to3(a) + to3(b),
        im1=1 << k,
        im2=1 << k,
        name="identity",
    )


def lift_code(code, switches):
    """Reuse a code under switches that reveal at least as much side information."""
    if not switches.dominates(code.switches):
        raise ZefcError(
            "bad_lift",
            "target switches must reveal at least as much as the code was built for",
            source=code.switches.as_string(),
            target=switches.as_string(),
        )
    return KShotCode(
        k=code.k,
        switches=switches,
        phi1=code.phi1,
        phi2=code.phi2,
        psi=code.psi,
        im1=code.im1,
        im2=code.im2,
        name=f"{code.name}-as-{switches.as_string()}",
    )


def _iroot(value, power):
    """Integer floor of value ** (1/power)."""
    if power == 1 or value < 2:
        return value
    x = 1 << -(-value.bit_length() // power)
    while True:
        y = ((power - 1) * x + value // x ** (power - 1)) // power
        if y >= x:
            break
        x = y
    while x ** power > value:
        x -= 1
    return x


def exact_pow2_floor(n, cap):
    """floor(2^(n*cap)) for rational cap, exactly."""
    p, q = cap.numerator, cap.denominator
    return _iroot(1 << (n * p), q)


def build_packing_code_11(k, caps):
    """Case-11 code: pack the ternary sum and split its index across both channels."""
    if k < 1:
        raise ZefcError("bad_k", "block length must be at least 1", k=k)
    caps.require_bounded()
    to3 = _to_base3(k)
    total = 3 ** k
    n = least_uses(total, caps.c1 + caps.c2)
    while True:
        narrow = min(exact_pow2_floor(n, caps.c2), total)
        wide = -(-total // narrow)
        if least_uses(wide, caps.c1) <= n:
            break
        n += 1
    top = total - 1
    return KShotCode(
        k=k,
        switches=SwitchPair(1, 1),
        phi1=lambda x, y, d=narrow: (to3(x) + to3(y)) // d,
        phi2=lambda x, y, d=narrow: (to3(x) + to3(y)) % d,
        psi=lambda a, b, d=narrow: min(a * d + b, top),
        im1=wide,
        im2=narrow,
        name="packing11",
    )


def split_index(k, caps):
    """Boundary k1 for the case-01 split: least k1 >= 1 with 3^(k1*c2) >= 2^((c1-c2)(k-k1))."""
    caps.require_bounded()
    a = caps.c1 - caps.c2
    if a == 0:
        return 1
    b = caps.c2

    def enough(k1):
        return 3 ** (k1 * b.numerator * a.denominator) >= 2 ** (
            a.numerator * b.denominator * (k - k1)
        )

    seed = float(a) * k / (float(a) + float(b) * math.log2(3))
    k1 = min(max(1, math.ceil(seed - 1e-9)), k)
    while not enough(k1):
        k1 += 1
    while k1 > 1 and enough(k1 - 1):
        k1 -= 1
    return k1


def build_split_code_01(k, caps):
    """Case-01 code: sum the first k1-1 coordinates at encoder 1, forward the rest raw."""
    if k < 1:
        raise ZefcError("bad_k", "block length must be at least 1", k=k)
    caps.require_bounded()
    k1 = split_index(k, caps)
    low = k1 - 1
    mask = (1 << low) - 1
    base = 3 ** low
    to3_low = _to_base3(low) if low else (lambda v: 0)
    hi_width = k - low
    to3_hi = _to_base3(hi_width)
    return KShotCode(
        k=k,
        switches=SwitchPair(0, 1),
        phi1=lambda x, y: to3_low(x & mask) + to3_low(y & mask) + base * (x >> low),
        phi2=lambda x, y: y >> low,
        psi=lambda a, b: a % base + base * (to3_hi(a // base) + to3_hi(b)),
        im1=base * (1 << (k - low)),
        im2=1 << (k - low),
        name="split01",
    )


def code_from_partition(partition, colorings=None):
    """Assemble a case-01 code from a partition of y-space with per-block colorings."""
    if not partition:
        raise ZefcError("not_a_partition", "partition must have at least one block")
    k = partition[0].k
    if k > MAX_EXHAUSTIVE_K:
        raise ZefcError("k_too_large", f"partition codes are limited to k<={MAX_EXHAUSTIVE_K}", k=k)
    size = 1 << k
    block_of = {}
    for i, block in enumerate(partition):
        if block.k != k or block.radix != 2 or not block.members:
            raise ZefcError("not_a_partition", "blocks must be nonempty binary sets of equal length")
        for y in block.members:
            if y in block_of:
                raise ZefcError("not_a_partition", "blocks overlap", value=word_to_string(y, k, 2))
            block_of[y] = i
    if len(block_of) != size:
        raise ZefcError("not_a_partition", "blocks do not cover the whole space")

    to3 = _to_base3(k)
    if colorings is None:
        colorings = []
        for block in partition:
            sums = sorted({to3(x) + to3(y) for x in range(size) for y in block.members})
            index = {s: i for i, s in enumerate(sums)}
            colorings.append({(x, y): index[to3(x) + to3(y)] for x in range(size) for y in block.members})
    if len(colorings) != len(partition):
        raise ZefcError("invalid_coloring", "need exactly one coloring per block")

    decode = {}
    labels = set()
    for i, block in enumerate(partition):
        by_label = {}
        for x in range(size):
            for y in block.members:
                label = colorings[i].get((x, y))
                if label is None:
                    raise ZefcError(
                        "invalid_coloring",
                        "coloring must cover every pair of its block",
                        block=i,
                        x=word_to_string(x, k, 2),
                        y=word_to_string(y, k, 2),
                    )
                s = to3(x) + to3(y)
                if by_label.setdefault(label, s) != s:
                    raise ZefcError(
                        "invalid_coloring",
                        "coloring reuses a label across conflicting pairs",
                        block=i,
                        label=label,
                    )
        for label, s in by_label.items():
            decode[(label, i)] = s
            labels.add(label)

    phi1_map = {
        (x, y): colorings[block_of[y]][(x, y)] for x in range(size) for y in range(size)
    }
    return KShotCode(
        k=k,
        switches=SwitchPair(0, 1),
        phi1=lambda x, y: phi1_map[(x, y)],
        phi2=lambda x, y: block_of[y],
        psi=lambda a, b: decode.get((a, b), 0),
        im1=len(labels),
        im2=len(partition),
        name="partition",
    )


def _canonical_labels(code):
    """First-seen relabeling of both encoders over ascending sweeps of their domains."""
    size = 1 << code.k
    order1, order2 = {}, {}
    for x in range(size):
        for y in range(size) if code.switches.s2 == 1 else (0,):
            a = code.phi1(x, y)
            if a not in order1:
                order1[a] = len(order1)
    for y in range(size):
        for x in range(size) if code.switches.s1 == 1 else (0,):
            b = code.phi2(x, y)
            if b not in order2:
                order2[b] = len(order2)
    if len(order1) != code.im1 or len(order2) != code.im2:
        raise ZefcError(
            "bad_image_count",
            "declared image sizes do not match realized label sets",
            declared=[code.im1, code.im2],
            realized=[len(order1), len(order2)],
        )
    return order1, order2


def code_to_json(code):
    """Serialize a code as tables over digit strings with first-seen canonical labels."""
    if code.k > MAX_EXHAUSTIVE_K:
        raise ZefcError("k_too_large", f"serialization is limited to k<={MAX_EXHAUSTIVE_K}", k=code.k)
    k = code.k
    size = 1 << k
    order1, order2 = _canonical_labels(code)
    sees_y = code.switches.s2 == 1
    sees_x = code.switches.s1 == 1

    phi1_table = {}
    for x in range(size):
        xs = word_to_string(x, k, 2)
        if sees_y:
            for y in range(size):
                phi1_table[f"{xs},{word_to_string(y, k, 2)}"] = order1[code.phi1(x, y)]
        else:
            phi1_table[xs] = order1[code.phi1(x, 0)]
    phi2_table = {}
    for y in range(size):
        ys = word_to_string(y, k, 2)
        if sees_x:
            for x in range(size):
                phi2_table[f"{word_to_string(x, k, 2)},{ys}"] = order2[code.phi2(x, y)]
        else:
            phi2_table[ys] = order2[code.phi2(0, y)]

    old1 = {new: old for old, new in order1.items()}
    old2 = {new: old for old, new in order2.items()}
    psi_table = {
        f"{a},{b}": word_to_string(code.psi(old1[a], old2[b]), k, 3)
        for a in range(code.im1)
        for b in range(code.im2)
    }
    return {
        "k": k,
        "switches": code.switches.as_string(),
        "phi1": phi1_table,
        "phi2": phi2_table,
        "psi": psi_table,
        "images": [code.im1, code.im2],
    }


def code_from_json(doc):
    """Rebuild a table-backed code from its JSON form."""
    try:
        k = int(doc["k"])
        switches = SwitchPair.from_string(doc["switches"])
        im1, im2 = (int(v) for v in doc["images"])
        raw1, raw2, raw_psi = doc["phi1"], doc["phi2"], doc["psi"]
    except (KeyError, TypeError, ValueError):
        raise ZefcError("bad_code_json", "missing or malformed code fields")

    def parse_domain(table, paired):
        out = {}
        for key, label in table.items():
            if paired:
                xs, ys = key.split(",")
                out[(word_from_string(xs, 2)[0], word_from_string(ys, 2)[0])] = int(label)
            else:
                out[word_from_string(key, 2)[0]] = int(label)
        return out

    phi1_map = parse_domain(raw1, switches.s2 == 1)
    phi2_map = parse_domain(raw2, switches.s1 == 1)
    psi_map = {}
    for key, word in raw_psi.items():
        a, b = (int(part) for part in key.split(","))
        psi_map[(a, b)] = word_from_string(word, 3)[0]

    size = 1 << k
    want1 = size * size if switches.s2 == 1 else size
    want2 = size * size if switches.s1 == 1 else size
    if len(phi1_map) != want1 or len(phi2_map) != want2:
        raise ZefcError("bad_code_json", "encoder tables must cover their full domains")

    if switches.s2 == 1:
        phi1 = lambda x, y: phi1_map[(x, y)]
    else:
        phi1 = lambda x, y: phi1_map[x]
    if switches.s1 == 1:
        phi2 = lambda x, y: phi2_map[(x, y)]
    else:
        phi2 = lambda x, y: phi2_map[y]
    realized1 = len(set(phi1_map.values()))
    realized2 = len(set(phi2_map.values()))
    if realized1 != im1 or realized2 != im2:
        raise ZefcError(
            "bad_code_json",
            "declared image sizes disagree with tables",
            declared=[im1, im2],
            realized=[realized1, realized2],
        )
    return KShotCode(
        k=k,
        switches=switches,
        phi1=phi1,
        phi2=phi2,
        psi=lambda a, b: psi_map.get((a, b), 0),
        im1=im1,
        im2=im2,
        name="from-json",
    )
