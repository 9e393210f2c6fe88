"""The block size of the serial kernels and the `FLUXLINE_THREADS` check.

Every kernel runs on the calling thread. `quadrature.biot_savart` takes
its points in blocks of at most CHUNK_ROWS rows and `quadrature.BLOCK_PAIRS`
node pairs, which bounds the memory of one block, and
`topology.crossing_linking` its run pairs in chunks of BLOCK_PAIRS
segment-triangle pairs. `--threads` and `FLUXLINE_THREADS`
are checked and otherwise unused, and results do not depend on
`OPENBLAS_NUM_THREADS` either (`biot_savart` contracts in numpy's own loop).
"""
import os

from .errors import SchemaError

CHUNK_ROWS = 256


def check_threads_env():
    """Raise SchemaError unless FLUXLINE_THREADS is unset, empty or an integer >= 1."""
    env = os.environ.get("FLUXLINE_THREADS")
    if env:
        try:
            ok = int(env) >= 1
        except ValueError:
            ok = False
        if not ok:
            raise SchemaError(f"FLUXLINE_THREADS must be an integer >= 1, got {env!r}")
