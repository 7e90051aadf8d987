"""Span tracer for the traced run, and the per-layer metrics computed from its spans.

The tracer wraps zefc's public functions from outside the package. Each call of
a wrapped function records one span: id, parent id, name, request id, start
and end in nanoseconds. Spans stay in per-thread buffers in memory and are
written out once, when the run ends.
"""

import array
import functools
import itertools
import math
import sys
import threading
import time

import numpy as np

# (module, attribute) -> span name. The wrapper replaces the function in every
# zefc module that bound the same object, e.g. `from .codec import check_admissible`
# in cli, acceptance, capacity and nfc.
TRACED = {
    ("zefc.cli", "main"): "cli.main",
    ("zefc.capacity", "capacity"): "capacity.capacity",
    ("zefc.capacity", "construct_for_case"): "capacity.construct_for_case",
    ("zefc.codec", "check_admissible"): "codec.check_admissible",
    ("zefc.codec", "code_to_json"): "codec.code_to_json",
    ("zefc.codec", "rate_account"): "codec.rate_account",
    ("zefc.codec", "build_identity_code"): "codec.build",
    ("zefc.codec", "lift_code"): "codec.build",
    ("zefc.codec", "build_packing_code_11"): "codec.build",
    ("zefc.codec", "build_split_code_01"): "codec.build",
    ("zefc.bitspace", "word_to_string"): "bitspace.word_to_string",
    ("zefc.bitspace", "binary_to_base3_table"): "bitspace.binary_to_base3_table",
    ("zefc.bitspace", "sumset"): "bitspace.sumset",
    ("zefc.coloring", "q_k"): "coloring.q_k",
    ("zefc.coloring", "verify_sumset_lower_bound"): "coloring.verify_sumset_lower_bound",
    ("zefc.coloring", "mixed_min_pair_sumset"): "coloring.mixed_min_pair_sumset",
    ("zefc.coloring", "verify_aitch_superadditivity"): "coloring.verify_aitch_superadditivity",
    ("zefc.coloring", "chi_m"): "coloring.chi_m",
    ("zefc.nfc", "guang_bound"): "nfc.guang_bound",
    ("zefc.nfc", "n_cf"): "nfc.n_cf",
    ("zefc.nfc", "classify_cut"): "nfc.classify_cut",
    ("zefc.nfc", "transform_code"): "nfc.transform_code",
    ("zefc.nfc", "check_network_admissible"): "nfc.check_network_admissible",
    ("zefc.nfc", "inverse_transform"): "nfc.inverse_transform",
}

# Work counters read off a traced function's result.
COUNTS = {
    "codec.check_admissible": lambda r: {"codec.pairs_checked": r.pairs_checked},
    "codec.code_to_json": lambda r: {
        "codec.table_entries": len(r["phi1"]) + len(r["phi2"]) + len(r["psi"])
    },
    "coloring.q_k": lambda r: {
        "coloring.q_k.subsets": math.comb(1 << r.k, r.l) if r.exact and r.l else 0
    },
    "coloring.verify_sumset_lower_bound": lambda r: {
        "coloring.subsets_checked": sum(e["subsets_checked"] for e in r.entries)
    },
    "coloring.verify_aitch_superadditivity": lambda r: {"coloring.aitch_checked": r.checked},
    "nfc.guang_bound": lambda r: {"nfc.cuts_seen": r.cuts_seen},
}

CRITERIA = (
    "capacity_closed_forms",
    "split_sandwich",
    "coloring_converse",
    "aitch_superadditivity",
    "sumset_lower_bound",
    "cutset_nontightness",
    "mixed_pair_minimum",
    "property_suite",
)

COUNTERS = (
    "codec.pairs_checked",
    "codec.table_entries",
    "coloring.q_k.subsets",
    "coloring.subsets_checked",
    "coloring.aitch_checked",
    "nfc.cuts_seen",
)

# Inclusive seconds are reported for the TIMED span names, call counts for CALLED.
TIMED = sorted(set(TRACED.values()) - {"cli.main"}) + ["parallel.chunked_map"]
TIMED += [f"acceptance.{name}" for name in CRITERIA]
CALLED = ("bitspace.word_to_string", "parallel.chunked_map", "nfc.n_cf", "nfc.classify_cut")
LAYERS = ("capacity", "codec", "bitspace", "coloring", "parallel", "nfc", "acceptance")

# Every per-layer metric as (name, unit, better). run.py adds cli.out_bytes and
# the trace.*_s metrics, which compare the traced batch with an untraced one.
PER_LAYER = (
    [
        ("cli.main.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.handler.self_s", "s", "lower"),
        ("cli.out_bytes", "bytes", "lower"),
    ]
    + [(f"{name}.s", "s", "lower") for name in TIMED]
    + [(f"{name}.calls", "count", "lower") for name in CALLED]
    + [(name, "count", "lower") for name in COUNTERS]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("parallel.chunk_busy_s", "s", "lower"),
        ("parallel.overlap", "ratio", "higher"),
        ("nfc.structure_memo.hit_ratio", "ratio", "higher"),
        ("nfc.structure_memo.lookups", "count", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.wall_ref_s", "s", "lower"),
        ("trace.untraced_wall_ref_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class _Rows:
    """Span columns for one thread."""

    def __init__(self):
        self.sid = array.array("q")
        self.parent = array.array("q")
        self.name = array.array("l")
        self.request = array.array("l")
        self.start = array.array("q")
        self.end = array.array("q")
        self.outer = array.array("b")  # no enclosing span on this thread has the same name


class Tracer:
    """Records a span for every call of a wrapped function."""

    def __init__(self):
        self.names = []
        self._index = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._rows = []
        self.request = 0
        self.counts = {}

    def name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _thread(self):
        local = self._local
        local.ids, local.open, local.rows = [0], [], _Rows()
        self._rows.append(local.rows)
        return local

    def current(self):
        """Id of the innermost open span on this thread, 0 at top level."""
        local = self._local
        return local.ids[-1] if hasattr(local, "ids") else 0

    def call(self, idx, fn, args, kwargs, parent=None, count=None, name_of=None):
        local = self._local
        if not hasattr(local, "ids"):
            local = self._thread()
        ids, open_names = local.ids, local.open
        sid = next(self._ids)
        if parent is None:
            parent = ids[-1]
        outer = idx not in open_names
        ids.append(sid)
        open_names.append(idx)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if name_of is not None:
                idx = self.name_index(name_of(result))
        finally:
            end = time.perf_counter_ns()
            ids.pop()
            open_names.pop()
            rows = local.rows
            rows.sid.append(sid)
            rows.parent.append(parent)
            rows.name.append(idx)
            rows.request.append(self.request)
            rows.start.append(start)
            rows.end.append(end)
            rows.outer.append(outer)
        if count is not None:
            for key, value in count(result).items():
                self.counts[key] = self.counts.get(key, 0) + value
        return result

    def wrap(self, name, fn, count=None, name_of=None):
        idx = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(idx, fn, args, kwargs, count=count, name_of=name_of)

        return traced

    def columns(self):
        """All spans as numpy columns, in no particular order."""
        fields = ("sid", "parent", "name", "request", "start", "end", "outer")
        return {
            field: np.concatenate(
                [np.frombuffer(getattr(rows, field), dtype=getattr(rows, field).typecode)
                 for rows in self._rows]
                or [np.zeros(0, dtype=np.int64)]
            ).astype(np.int64)
            for field in fields
        }


def install(tracer):
    """Wrap every traced zefc function, in every zefc module that bound it."""
    import zefc.cli  # noqa: F401  (imports every zefc module)

    acceptance, cli, parallel = (sys.modules[f"zefc.{m}"] for m in ("acceptance", "cli", "_parallel"))
    plan = [
        (getattr(sys.modules[module], attr), name, COUNTS.get(name), None)
        for (module, attr), name in TRACED.items()
    ]
    plan += [(fn, "cli.handler", None, None) for attr, fn in vars(cli).items() if attr.startswith("_cmd_")]
    plan += [(fn, "acceptance.criterion", None, _criterion_name) for fn in acceptance.CRITERIA]
    wrapped = {id(fn): (fn, tracer.wrap(name, fn, count, name_of)) for fn, name, count, name_of in plan}
    chunked = parallel.chunked_map
    wrapped[id(chunked)] = (
        chunked,
        tracer.wrap("parallel.chunked_map", _chunk_spans(tracer, chunked)),
    )
    for module_name, module in list(sys.modules.items()):
        if module_name == "zefc" or module_name.startswith("zefc."):
            for attr, value in list(vars(module).items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, wrapper)
    # run_all iterates this tuple, which holds the criterion functions themselves.
    acceptance.CRITERIA = tuple(wrapped[id(fn)][1] for fn in acceptance.CRITERIA)


def _criterion_name(result):
    return f"acceptance.{result.name}"


def _chunk_spans(tracer, chunked_map):
    """chunked_map that records each chunk as a span of the layer that owns the chunk function."""

    def traced_chunked_map(fn, chunks, threads=None):
        layer = fn.__module__.rsplit(".", 1)[-1].lstrip("_")
        idx = tracer.name_index(f"{layer}.chunk")
        parent = tracer.current()
        return chunked_map(
            lambda chunk: tracer.call(idx, fn, (chunk,), {}, parent=parent), chunks, threads
        )

    return traced_chunked_map


def self_times(cols):
    """Each span's duration minus the part of its interval that its children cover.

    Children on other threads may overlap one another, so coverage is the
    length of the union of the children's intervals, clipped to the parent's.
    """
    sid, parent, start, end = cols["sid"], cols["parent"], cols["start"], cols["end"]
    n = len(sid)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    row_of = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
    row_of[sid] = np.arange(n)
    child = np.nonzero(parent > 0)[0]
    prow = row_of[parent[child]]
    order = np.lexsort((start[child], prow))
    child, prow = child[order], prow[order]
    t0 = int(start.min())
    width = int(end.max()) - t0 + 1
    # Shift every parent's children into a time window of their own, so one
    # running maximum over all rows never carries across two parents.
    base = prow * width
    lo = np.maximum(start[child], start[prow]) - t0 + base
    hi = np.minimum(end[child], end[prow]) - t0 + base
    hi = np.maximum(hi, lo)
    reach = np.maximum.accumulate(hi)
    reach = np.concatenate(([0], reach[:-1]))
    piece = hi - np.maximum(lo, reach)
    covered = np.zeros(n, dtype=np.int64)
    np.add.at(covered, prow, np.maximum(piece, 0))
    return (end - start) - covered


def layer_metrics(cols, names, counts, structure_memo):
    """Per-layer metrics from one traced batch (all but cli.out_bytes and trace.*_s)."""
    dur = cols["end"] - cols["start"]
    by_name = {
        "inclusive": np.bincount(cols["name"], weights=dur * cols["outer"], minlength=len(names)),
        "self": np.bincount(cols["name"], weights=self_times(cols), minlength=len(names)),
        "all": np.bincount(cols["name"], weights=dur, minlength=len(names)),
        "calls": np.bincount(cols["name"], minlength=len(names)),
    }

    def total(kind, keep):
        return sum(float(v) for n, v in zip(names, by_name[kind]) if keep(n))

    def seconds(kind, keep):
        return total(kind, keep) / 1e9

    metrics = {
        "cli.main.s": seconds("inclusive", lambda n: n == "cli.main"),
        "cli.self_s": seconds("self", lambda n: n == "cli.main"),
        "cli.handler.self_s": seconds("self", lambda n: n == "cli.handler"),
    }
    for span in TIMED:
        metrics[f"{span}.s"] = seconds("inclusive", lambda n: n == span)
    for span in CALLED:
        metrics[f"{span}.calls"] = int(total("calls", lambda n: n == span))
    for counter in COUNTERS:
        metrics[counter] = counts.get(counter, 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = seconds("self", lambda n: n.split(".", 1)[0] == layer)
    busy = seconds("all", lambda n: n.endswith(".chunk"))
    pool = metrics["parallel.chunked_map.s"]
    metrics["parallel.chunk_busy_s"] = busy
    metrics["parallel.overlap"] = busy / pool if pool else 0.0
    lookups = structure_memo.hits + structure_memo.misses
    metrics["nfc.structure_memo.hit_ratio"] = structure_memo.hits / lookups if lookups else 0.0
    metrics["nfc.structure_memo.lookups"] = lookups
    metrics["trace.spans"] = len(dur)
    return metrics
