"""The traced peak of one call, for the tests that bound the memory of a
kernel."""

import tracemalloc


def traced_peak(fn, *args):
    """``(result, tracemalloc peak in bytes)`` of ``fn(*args)``."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
