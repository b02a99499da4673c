"""Reference kernels that track how fast the host runs right now.

Shared machines change speed by up to 2x within minutes as neighbours
come and go, which swamps any change a patch makes.  Before every
repetition the benchmark samples three fixed kernels — dict and heap
updates, method calls on small objects, and NumPy vector arithmetic,
the kinds of work the program's hot loops do — and reports host times
as if the host ran them in :data:`NOMINAL_S`.  Each kernel runs for
tens of milliseconds in one piece, so brief interruptions average out
in it as they do in a repetition.  The kernels use nothing
from the program, so no change to the program moves them.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

#: One sample on a quiet 2-vCPU x86-64 VM (CPython 3.11, NumPy 2.4);
#: host times are reported as if measured there.
NOMINAL_S = 0.2


def _dict_heap() -> None:
    rng = random.Random(0)
    totals: dict = {}
    heap: list = []
    for i in range(60000):
        key = (i * 7919) % 1009
        value = totals.get(key, 0.0) + rng.random() * 1.5
        totals[key] = value
        heapq.heappush(heap, (value, i))
        if len(heap) > 500:
            heapq.heappop(heap)


class _Cell:
    __slots__ = ("gain", "bias", "state")

    def __init__(self, gain: float, bias: float) -> None:
        self.gain = gain
        self.bias = bias
        self.state = 0.0

    def step(self, x: float) -> float:
        self.state = self.state * 0.9 + self.gain * x - self.bias
        return self.state


def _objects() -> None:
    cells = [_Cell(i * 1e-3, i * 2e-3) for i in range(2000)]
    for r in range(200):
        for cell in cells:
            cell.step(r * 0.1)


_VECTOR = np.random.default_rng(0).random(200_000)


def _vectors() -> None:
    a = _VECTOR
    for _ in range(120):
        a = np.sqrt(a * a + 0.5) * 0.99


def sample_s() -> float:
    """Host seconds the three kernels take now, run back to back."""
    t0 = time.perf_counter()
    _dict_heap()
    _objects()
    _vectors()
    return time.perf_counter() - t0
