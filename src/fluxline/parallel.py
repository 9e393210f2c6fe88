"""Deterministic block parallelism for the Biot–Savart pair sum.

`quadrature.biot_savart`, the one pooled kernel, runs over fixed blocks of
CHUNK_ROWS rows. `blocks` returns the per-block results in block order and
the caller reduces them in that order, so a result never depends on how
many worker threads ran. numpy releases the GIL inside large array
kernels, which is where all the time goes, so plain threads give real
speedup. A sum of more than one block reaches the pool: a linking sum at
native resolution, or doubled to 512 nodes or more, and a potential at
more than 256 points. A linking sum that truncation settles at 128 or 256
nodes is one block. The native sum of a 2048-point square and a 2048-node
circle runs 1.8 times as fast on two threads as on one (median of five
runs on a 2-core host, min of 9 calls each; 73-79 ms against 37-45 ms).
The pruned scans and the crossing count are serial.
"""
import os
from concurrent.futures import ThreadPoolExecutor

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


def blocks(partial, n_rows, threads=None):
    """[partial(i0, i1) for each CHUNK_ROWS block of range(n_rows)], in block order.

    Serial for one thread or one block, otherwise one thread pool. An error
    raised by a block surfaces at that block's place in the order, so the
    first raising block wins, as it does serially.
    """
    spans = [(i, min(i + CHUNK_ROWS, n_rows)) for i in range(0, n_rows, CHUNK_ROWS)]
    nt = thread_count(threads)
    if nt == 1 or len(spans) == 1:
        return [partial(i0, i1) for i0, i1 in spans]
    with ThreadPoolExecutor(max_workers=nt) as ex:
        futures = [ex.submit(partial, i0, i1) for i0, i1 in spans]
        return [f.result() for f in futures]
