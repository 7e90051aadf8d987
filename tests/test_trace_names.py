"""The names the benchmark's span tracer binds in zefc still resolve.

`perfbench/spans.py` wraps zefc functions by (module, attribute) and
`perfbench/worker.py` reads a few more names, so deleting or renaming one of
them breaks the traced benchmark run. `spans.install` is not called here: it
rebinds module attributes for the whole process.
"""

import importlib
import pathlib
import sys

from zefc import _parallel, acceptance, nfc

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402


def test_every_traced_name_is_callable():
    missing = [
        f"{module}.{attr}"
        for module, attr in spans.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_structure_memo_reports_cache_info():
    assert nfc._structure_count.cache_info().misses >= 0


def test_parallel_names_exist():
    assert callable(_parallel.chunked_map)
    assert callable(_parallel.thread_count)


def test_acceptance_lists_its_criteria():
    assert len(acceptance.CRITERIA) > 0
