"""Peak memory of a call, as tracemalloc sees it: numpy reports its array
buffers to tracemalloc, so the peak counts every array the call holds."""
import tracemalloc


def peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn`` runs, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
