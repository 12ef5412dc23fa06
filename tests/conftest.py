import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``result, peak = traced_peak(call)``: call() and the peak bytes
    tracemalloc traced while it ran."""

    def run(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
