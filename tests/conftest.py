"""Fixtures shared by the test modules."""

from __future__ import annotations

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """A runner: traced_peak(fn, *args) is fn(*args) and the peak bytes
    tracemalloc traced while it ran."""

    def run(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
