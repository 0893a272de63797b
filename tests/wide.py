"""The noise-free complex128 signal grid.  ``synthesize_signal`` rounds it
to complex64 on store, so the tests of synthesis arithmetic compare this
grid, at complex128 tolerances, with exact sums and oracles."""
import numpy as np

from sivmdcs.response import signal_rows


def wide_signal(ensemble, grid, waiting_time_ps, mode, laser=None) -> np.ndarray:
    """The (n_tau, n_t) complex128 grid, assembled from the blocks of
    ``signal_rows``."""
    data = np.empty((grid.n_tau, grid.n_t), dtype=complex)
    for lo, block in signal_rows(ensemble, grid, waiting_time_ps, mode, laser):
        data[lo:lo + len(block)] = block
    return data
