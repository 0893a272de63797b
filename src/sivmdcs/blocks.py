"""The block budget that every blocked loop of the package shares, and the
phasor tables that synthesis and the lock-in share."""
import numpy as np

BLOCK_ENTRIES = 65_536         # entries of a block: 1 MiB of complex128
ANCHOR_ROWS = 64               # rows of a phasor table per fresh exp


def row_blocks(n_rows: int, n_cols: int, entries: int = BLOCK_ENTRIES) -> range:
    """First rows of blocks of about ``entries`` entries, at least one row
    each; the range's step is the block height."""
    return range(0, n_rows, max(1, entries // max(n_cols, 1)))


def phasors(z, n: int, step: float, start: float = 0.0) -> np.ndarray:
    """(n, len(z)) table exp(z (start + k step)), k = 0..n-1: a fresh exp
    every 64th row, repeated multiplication by exp(z step) between (at most
    ~64 ulp per entry).  With start 0 the first row is 1 and takes no exp."""
    table = np.empty((n, len(z)), dtype=complex)
    first = ANCHOR_ROWS if start == 0 else 0
    table[:1] = 1.0             # overwritten below unless start is 0
    table[first::ANCHOR_ROWS] = np.exp(
        np.outer(start + np.arange(first, n, ANCHOR_ROWS) * step, z))
    ratio = np.exp(z * step)
    for j in range(1, min(n, ANCHOR_ROWS)):
        rows = table[j::ANCHOR_ROWS]
        np.multiply(table[j - 1::ANCHOR_ROWS][:len(rows)], ratio, out=rows)
    return table
