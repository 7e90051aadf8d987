"""k-shot codes for two-encoder sum compression: constructions, checking, rates."""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .bitspace import binary_to_base3_table, narrowest, sum_table, word_to_string
from .errors import ZefcError
from .exact import exact_pow2_floor, least_integer, least_uses, log2_3_sign

MAX_EXHAUSTIVE_K = 10
MAX_CAP_DENOMINATOR = 64
# Largest cap. Capacities are floats formed from c1 + c2 and k*c*log2(3), which
# caps near the float limit, such as 1e308, overflow to inf or nan.
MAX_CAP = Fraction(1 << 512)
# Budget of the case-01 code: it builds the integer 3^(k1-1), about 0.61*k bits at
# caps (2,1) and up to k*log2(3) bits when c2 is far below c1. At this k, capacity
# with the witness takes about 0.2 s at caps (2,1) and 1.1 s at caps (1, 1/64)
# (Python 3.11, one Xeon core).
MAX_SPLIT_BASE_K = 1 << 22
# Budget of the case-11 construction: k*log2(3), the size in bits of 3^k, times
# the denominator q of c2. It divides 3^k by floor(2^(n*c2)), a q-th root of a
# number of about that many bits. Caps (2,1) reach it at k of about 660 000 and
# (127/64, 63/64) at about 10 000; either takes about 1 s.
MAX_PACKING_BITS = 1 << 20
# Budget of the case-00 and case-10 codes: their images hold 2^k words, a k-bit
# integer. At this k, capacity with a witness takes about 0.04 s and 17 MB; at
# k = 10^11 it would need 12.5 GB.
MAX_IDENTITY_K = 1 << 26
# Bytes of records per block of a rendered code table; the text is a little
# shorter once the padding is dropped.
BLOCK_BYTES = 1 << 16


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
    """Parse one capacity: 'p/q' or a decimal."""
    if isinstance(text, Fraction):
        return text
    s = str(text).strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        # float() reads the exponent without building 10^exponent as Fraction
        # does, so a decimal outside the positive float range is refused first.
        if not 0 < float(s) < math.inf:
            raise ValueError(s)
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ZefcError("bad_caps", "capacity must be a positive rational or decimal", value=s)


@dataclass(frozen=True)
class ChannelCaps:
    """Per-channel bit budgets, normalized so c1 >= c2."""

    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        for name, cap in (("c1", self.c1), ("c2", self.c2)):
            if not isinstance(cap, Fraction) or not 0 < cap <= MAX_CAP:
                raise ZefcError("bad_caps", "capacities must lie in (0, 2^512]", **{name: str(cap)})
            if cap.denominator > MAX_CAP_DENOMINATOR:
                raise ZefcError(
                    "bad_caps",
                    f"capacity denominators are capped at {MAX_CAP_DENOMINATOR}",
                    **{name: str(cap)},
                )
        if self.c1 < self.c2:
            raise ZefcError("bad_caps", "caps must be normalized with c1 >= c2 (use ChannelCaps.of)")

    @classmethod
    def of(cls, c1, c2):
        a, b = _parse_cap(c1), _parse_cap(c2)
        return cls(max(a, b), min(a, b))

    def as_strings(self):
        return (str(self.c1), str(self.c2))


@dataclass(frozen=True, eq=False)
class KShotCode:
    """A k-shot code as tables over packed integer words.

    phi1[x, y] and phi2[x, y] are the labels the two encoders send for the k-bit
    words x and y, with values in range(im1) and range(im2); psi[a, b] is the packed
    base-3 sum decoded from the label pair (a, b). The tables may have any integer
    dtype; the builders give each the narrowest unsigned one that holds its range
    (`bitspace.narrowest`). Above MAX_EXHAUSTIVE_K the three tables are None and
    the code carries only its image sizes, which is all rate accounting needs.
    """

    k: int
    switches: SwitchPair
    phi1: Optional[np.ndarray]
    phi2: Optional[np.ndarray]
    psi: Optional[np.ndarray]
    im1: int
    im2: int
    name: str

    def __post_init__(self):
        tables = (self.phi1, self.phi2, self.psi)
        if all(table is None for table in tables):
            return
        size = 1 << self.k
        specs = (
            ("phi1", (size, size), self.im1),
            ("phi2", (size, size), self.im2),
            ("psi", (self.im1, self.im2), 3 ** self.k),
        )
        for table, (name, shape, top) in zip(tables, specs):
            if (
                table is None
                or table.shape != shape
                or not np.issubdtype(table.dtype, np.integer)
                or table.min() < 0
                or table.max() >= top
            ):
                raise ZefcError(
                    "bad_code",
                    f"{name} must be a {shape[0]}x{shape[1]} integer table over range({top})",
                    k=self.k,
                )


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


def _tables(code, what):
    """The code's phi1, phi2 and psi tables; a rate-only code is refused."""
    if code.k > MAX_EXHAUSTIVE_K:
        raise ZefcError("k_too_large", f"{what} is limited to k<={MAX_EXHAUSTIVE_K}", k=code.k)
    return code.phi1, code.phi2, code.psi


def check_admissible(code):
    """Verify psi[phi1, phi2] = x + y over all 4^k pairs at once, k <= 10.

    The counterexample is the first failing pair, x major and y minor.
    """
    phi1, phi2, psi = _tables(code, "exhaustive admissibility checking")
    k = code.k
    want = sum_table(k)
    got = psi[phi1, phi2]
    bad = np.flatnonzero(got != want)
    if bad.size == 0:
        return AdmissibilityResult(ok=True, pairs_checked=want.size)
    x, y = divmod(int(bad[0]), 1 << k)
    return AdmissibilityResult(
        ok=False,
        pairs_checked=want.size,
        counterexample={
            "x": word_to_string(x, k, 2),
            "y": word_to_string(y, k, 2),
            "expected": word_to_string(int(want[x, y]), k, 3),
            "decoded": word_to_string(int(got[x, y]), k, 3),
        },
    )


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
    if k > MAX_IDENTITY_K:
        raise ZefcError("k_too_large", f"the identity code is limited to k<={MAX_IDENTITY_K}", k=k)
    size = 1 << k
    tables = (None, None, None)
    if k <= MAX_EXHAUSTIVE_K:
        words = narrowest(np.arange(size), size)
        tables = (
            np.broadcast_to(words[:, None], (size, size)),
            np.broadcast_to(words[None, :], (size, size)),
            sum_table(k),
        )
    return KShotCode(k, SwitchPair(0, 0), *tables, im1=size, im2=size, name="identity")


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


def packing_sizes(k, caps):
    """Image sizes (wide, narrow) of the case-11 packing code at block length k.

    n starts at the least number of uses that carries 3^k over both channels. The
    narrow image is the most that n uses of c2 carry, at most 3^k, and the wide
    image 3^k over it rounded up; n grows until the wide image fits n uses of c1.
    """
    if k < 1:
        raise ZefcError("bad_k", "block length must be at least 1", k=k)
    # ceil(k*log2(3)) * q > budget exactly when k*log2(3) > floor(budget / q).
    if log2_3_sign(-(MAX_PACKING_BITS // caps.c2.denominator), k) > 0:
        raise ZefcError(
            "packing_too_costly",
            f"the case-11 code is limited to k*log2(3) * denominator(c2) <= {MAX_PACKING_BITS} bits",
            k=k,
            caps=caps.as_strings(),
        )
    total = 3 ** k
    n = least_uses(total, caps.c1 + caps.c2)
    # least_uses settles a large c2 without building 2^(n*c2).
    narrow_uses = least_uses(total, caps.c2)
    while True:
        narrow = total if narrow_uses <= n else exact_pow2_floor(n, caps.c2)
        wide = -(-total // narrow)
        if least_uses(wide, caps.c1) <= n:
            return wide, narrow
        n += 1


def build_packing_code_11(k, caps):
    """Case-11 code: pack the ternary sum and split its index across both channels."""
    wide, narrow = packing_sizes(k, caps)
    tables = (None, None, None)
    if k <= MAX_EXHAUSTIVE_K:
        # narrow <= 3^k fits sum_table's dtype, so np.divmod keeps that dtype.
        high, low = np.divmod(sum_table(k), narrow)
        packed = np.arange(wide)[:, None] * narrow + np.arange(narrow)[None, :]
        tables = (
            narrowest(high, wide),
            narrowest(low, narrow),
            narrowest(np.minimum(packed, 3**k - 1), 3**k),
        )
    return KShotCode(k, SwitchPair(1, 1), *tables, im1=wide, im2=narrow, name="packing11")


def split_index(k, caps):
    """Boundary k1 for the case-01 split: least k1 >= 1 with 3^(k1*c2) >= 2^((c1-c2)(k-k1))."""
    a, b = caps.c1 - caps.c2, caps.c2
    # k1*c2*log2(3) - (c1-c2)*(k-k1) >= 0, which holds at k1 = k.
    return max(1, least_integer(-a * k, 0, a, b))


def build_split_code_01(k, caps):
    """Case-01 code: sum the first k1-1 coordinates at encoder 1, forward the rest raw.

    Encoder 1 sends the base-3 sum of the low coordinates plus base times its own high
    word; encoder 2 sends its high word; psi adds the two high words in base 3.
    """
    if k < 1:
        raise ZefcError("bad_k", "block length must be at least 1", k=k)
    if k > MAX_SPLIT_BASE_K:
        raise ZefcError("k_too_large", f"the case-01 code is limited to k<={MAX_SPLIT_BASE_K}", k=k)
    low = split_index(k, caps) - 1
    base = 3 ** low
    hi_width = k - low
    im1, im2 = base << hi_width, 1 << hi_width
    tables = (None, None, None)
    if k <= MAX_EXHAUSTIVE_K:
        size = 1 << k
        words = np.arange(size)
        low3 = binary_to_base3_table(low)[words & ((1 << low) - 1)]
        hi3 = binary_to_base3_table(hi_width)
        a = np.arange(im1)
        # phi1 and psi each add a column and a row that lie in the table's range;
        # both are narrowed first, so the sum is built narrow.
        phi1_column = narrowest(low3 + base * (words >> low), im1)
        psi_column = narrowest(a % base + base * hi3[a // base], 3**k)
        tables = (
            phi1_column[:, None] + narrowest(low3, im1)[None, :],
            np.broadcast_to(narrowest(words >> low, im2)[None, :], (size, size)),
            psi_column[:, None] + narrowest(base * hi3, 3**k)[None, :],
        )
    return KShotCode(k, SwitchPair(0, 1), *tables, im1=im1, im2=im2, name="split01")


def first_seen(flat):
    """Renumber non-negative integer labels in order of first appearance.

    Returns the new label at each position, in the narrowest unsigned dtype that
    holds them, and, for each new label, the int32 position where it first
    appears; flat has fewer than 2^31 entries (at most 4^MAX_EXHAUSTIVE_K here).
    """
    # first[v]: the first position of label v, or flat.size if v never occurs.
    # first and the positions share one dtype. With two, np.minimum.at takes
    # ufunc.at's slow path: over 4^9 positions, 0.8 ms becomes 14 ms (numpy 2.4).
    first = np.full(int(flat.max()) + 1, flat.size, dtype=np.int32)
    np.minimum.at(first, flat, np.arange(flat.size, dtype=np.int32))
    starts = np.sort(first[first < flat.size])
    rank = np.zeros(first.size, dtype=np.min_scalar_type(starts.size - 1))
    rank[flat[starts]] = np.arange(starts.size)
    return np.take(rank, flat), starts


def _canonical_labels(code):
    """First-seen relabeling of both encoders over ascending sweeps of their domains.

    Encoder 1 sweeps x, then y if it sees y; encoder 2 sweeps y, then x if it sees x.
    Returns, per encoder, its relabeled sweep and the old label of each new label.
    """
    phi1, phi2, _ = _tables(code, "serialization")
    sweeps = (
        ("phi1", phi1 if code.switches.s2 == 1 else phi1[:, :1], code.im1),
        ("phi2", (phi2 if code.switches.s1 == 1 else phi2[:1, :]).T, code.im2),
    )
    out = []
    for name, sweep, top in sweeps:
        flat = sweep.ravel()
        # A table changed after construction could hold any label; refuse it before
        # the lookups in first_seen, where a negative one would wrap around.
        if flat.min() < 0 or flat.max() >= top:
            raise ZefcError("bad_code", f"{name} labels must lie in range({top})", k=code.k)
        labels, starts = first_seen(flat)
        out.append((labels, flat[starts]))
    realized = [old.size for _, old in out]
    if realized != [code.im1, code.im2]:
        raise ZefcError(
            "bad_image_count",
            "declared image sizes do not match realized label sets",
            declared=[code.im1, code.im2],
            realized=realized,
        )
    return out


def _ascii(text):
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _digit_rows(k, radix):
    """Row v: the ASCII digits of word_to_string(v, k, radix), for every v < radix^k."""
    values = narrowest(np.arange(radix**k), radix**k)
    rows = values[:, None] // radix ** np.arange(k, dtype=values.dtype)
    rows %= radix
    return (rows + ord("0")).astype(np.uint8)


def _decimal_table(count):
    """Decimal digits of 0..count-1 as rows, right-aligned after 0 bytes."""
    table = np.arange(count)
    powers = 10 ** np.arange(len(str(count - 1)) - 1, -1, -1)
    rows = (table[:, None] // powers % 10 + ord("0")).astype(np.uint8)
    rows[(table[:, None] < powers) & (powers > 1)] = 0
    return rows


def _object_blocks(pad, shape, key, value):
    """A JSON object with one member per cell of shape, as json.dumps(indent=2) nests it at pad.

    key is a tuple of uint8 columns: bytes along the last axis, the other axes
    broadcast to shape, 0 bytes as padding. value is a pair (rows, index): the
    member at a cell takes the row of rows that index holds there. Each member is
    the lead ',\\n<pad>  "', the key columns, '": ' and the value row side by side:
    one record of a structured array with a void field per column, so the text
    is the array's bytes with the 0 bytes dropped. The text comes in blocks of
    leading rows of shape, about BLOCK_BYTES of records each, and the value rows
    are gathered one block at a time. The first lead opens the object instead;
    the closing line is left to the caller.
    """
    columns = [_ascii(f',\n{pad}  "')]
    for column in (*key, _ascii('": ')):
        # Fold a column into its left neighbour while the two span less than the
        # whole shape: fewer fields to fill, and no second full-shape array.
        left = columns[-1]
        lead = np.broadcast_shapes(left.shape[:-1], column.shape[:-1])
        if math.prod(lead) < math.prod(shape):
            columns[-1] = np.concatenate(
                [np.broadcast_to(c, (*lead, c.shape[-1])) for c in (left, column)], axis=-1
            )
        else:
            columns.append(column)
    rows, index = value
    columns.append(rows)
    record = np.dtype([(f"c{i}", f"V{c.shape[-1]}") for i, c in enumerate(columns)])
    *fixed, gather = [
        np.ascontiguousarray(c).view(record[name])[..., 0]
        for name, c in zip(record.names, columns)
    ]
    step = max(1, BLOCK_BYTES // (record.itemsize * math.prod(shape[1:])))
    for start in range(0, shape[0], step):
        stop = min(start + step, shape[0])
        block = np.empty((stop - start, *shape[1:]), dtype=record)
        for name, view in zip(record.names, fixed):
            # A column with the table's leading axis is sliced; any other broadcasts.
            whole = view.ndim < len(shape) or view.shape[0] == 1
            block[name] = view if whole else view[start:stop]
        block[record.names[-1]] = np.take(gather, index[start:stop])
        if start == 0:
            block.view(np.uint8).flat[0] = ord("{")
        yield block.tobytes().replace(b"\0", b"").decode("ascii")


def code_parts(code, pad=""):
    """The pieces of code_text(code, pad), in order: header, table blocks, footer.

    Every refusal is raised here, before any text is rendered; the returned
    generator renders the blocks as they are taken, so no string ever holds
    more than about BLOCK_BYTES of a table.
    """
    (labels1, old1), (labels2, old2) = _canonical_labels(code)
    k, inner = code.k, pad + "  "
    decoded = code.psi[np.ix_(old1, old2)]
    if decoded.min() < 0 or decoded.max() >= 3**k:
        raise ZefcError("bad_code", "psi values must lie in range(3^k)", k=k)
    size = 1 << k
    words = _digit_rows(k, 2)
    comma = _ascii(",")
    # Ternary digit rows between quotes, one per value of psi.
    ternary = np.full((3**k, k + 2), ord('"'), dtype=np.uint8)
    ternary[:, 1:-1] = _digit_rows(k, 3)
    psi_key = (_decimal_table(code.im1)[:, None], comma, _decimal_table(code.im2)[None])

    def encoder(labels, top, paired, pair_key):
        shape, key = ((size, size), pair_key) if paired else ((size,), (words,))
        return _object_blocks(inner, shape, key, (_decimal_table(top), labels.reshape(shape)))

    def generate():
        yield (
            f'{{\n{inner}"k": {k},\n{inner}"switches": "{code.switches.as_string()}",\n'
            f'{inner}"phi1": '
        )
        yield from encoder(
            labels1, code.im1, code.switches.s2 == 1, (words[:, None], comma, words[None])
        )
        yield f'\n{inner}}},\n{inner}"phi2": '
        # Encoder 2's labels run y major, but its keys still read "x,y".
        yield from encoder(
            labels2, code.im2, code.switches.s1 == 1, (words[None], comma, words[:, None])
        )
        yield f'\n{inner}}},\n{inner}"psi": '
        yield from _object_blocks(inner, (code.im1, code.im2), psi_key, (ternary, decoded))
        yield (
            f'\n{inner}}},\n{inner}"images": [\n{inner}  {code.im1},\n{inner}  {code.im2}\n'
            f"{inner}]\n{pad}}}"
        )

    return generate()


def code_text(code, pad=""):
    """The code as json.dumps(indent=2) prints its JSON form nested at indentation pad.

    The JSON form holds tables over digit strings with first-seen canonical
    labels: phi1 and phi2 map "x,y" (or the one word an encoder reads) to a
    label, psi maps "a,b" label pairs to a ternary digit string. The text is
    rendered from the arrays directly, without building a dict per table.
    """
    return "".join(code_parts(code, pad))


def code_to_json(code):
    """The code's JSON form (see code_text) as a dict."""
    return json.loads(code_text(code))
