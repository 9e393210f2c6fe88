"""Deterministic chunked parallelism.

Row ranges are fixed-size chunks and partial results are combined in chunk
order, so a result never depends on how many worker threads ran. numpy
releases the GIL inside large array kernels, which is where all the time
goes, so plain threads give real speedup on the O(N^2) pair loops.
"""
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import SchemaError

CHUNK_ROWS = 256


def thread_count(explicit=None) -> int:
    """Worker count: explicit argument, then FLUXLINE_THREADS, then cpu count."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("FLUXLINE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise SchemaError(
                f"FLUXLINE_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _spans(n_rows, chunk):
    return [(i, min(i + chunk, n_rows)) for i in range(0, n_rows, chunk)]


def _run_chunks(partial, n_rows, threads, chunk):
    spans = _spans(n_rows, chunk)
    nt = thread_count(threads)
    if nt == 1 or len(spans) == 1:
        return [partial(i0, i1) for i0, i1 in spans]
    with ThreadPoolExecutor(max_workers=nt) as ex:
        futures = [ex.submit(partial, i0, i1) for i0, i1 in spans]
        return [f.result() for f in futures]


def ordered_chunk_sum(partial, n_rows, threads=None, chunk=CHUNK_ROWS):
    """Sum partial(i0, i1) over row chunks, combining strictly in chunk order."""
    parts = _run_chunks(partial, n_rows, threads, chunk)
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


def ordered_chunk_map(partial, n_rows, threads=None, chunk=CHUNK_ROWS):
    """Concatenate per-chunk row blocks partial(i0, i1) back in row order."""
    return np.concatenate(_run_chunks(partial, n_rows, threads, chunk), axis=0)


def ordered_chunk_min(partial, n_rows, threads=None, chunk=CHUNK_ROWS):
    """Minimum of partial(i0, i1) over row chunks."""
    parts = _run_chunks(partial, n_rows, threads, chunk)
    best = parts[0]
    for p in parts[1:]:
        if p < best:
            best = p
    return best
