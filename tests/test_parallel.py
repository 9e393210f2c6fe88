"""The block runner: fixed blocks, results and errors in block order."""
import pytest

from fluxline import parallel


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_blocks_in_order_of_fixed_rows(threads):
    n = 2 * parallel.CHUNK_ROWS + 7
    spans = parallel.blocks(lambda i0, i1: (i0, i1), n, threads=threads)
    assert spans == [(0, 256), (256, 512), (512, n)]
    assert parallel.blocks(lambda i0, i1: (i0, i1), 5, threads=threads) == [(0, 5)]


@pytest.mark.parametrize("threads", [1, 2])
def test_first_raising_block_wins(threads):
    def partial(i0, i1):
        if i0:
            raise ValueError(f"block at {i0}")
        return i1

    with pytest.raises(ValueError, match="block at 256"):
        parallel.blocks(partial, 4 * parallel.CHUNK_ROWS, threads=threads)
