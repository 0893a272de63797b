"""The block budget that every blocked loop of the package shares."""

BLOCK_ENTRIES = 65_536         # entries of a block: 1 MiB of complex128


def row_blocks(n_rows: int, n_cols: int, entries: int = BLOCK_ENTRIES) -> range:
    """First rows of blocks of about ``entries`` entries, at least one row
    each; the range's step is the block height."""
    return range(0, n_rows, max(1, entries // max(n_cols, 1)))
