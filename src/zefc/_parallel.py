"""Deterministic chunked parallelism honoring a caller-provided thread bound."""

import os

from .errors import ZefcError


def thread_count(threads=None):
    """Resolve a thread bound; None means available parallelism."""
    if threads is None:
        return max(1, os.cpu_count() or 1)
    if not isinstance(threads, int) or threads < 1:
        raise ZefcError("bad_threads", "threads must be a positive integer", threads=threads)
    return threads


def chunked_map(fn, chunks, threads=None):
    """Apply fn to each chunk; results come back in chunk order."""
    chunks = list(chunks)
    t = thread_count(threads)
    if t == 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    # Imported here, not at the top: concurrent.futures loads logging, which would
    # add about 5 ms to every `import zefc.cli`.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(t, len(chunks))) as ex:
        return list(ex.map(fn, chunks))
