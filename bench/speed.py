"""Machine-speed probe: scales measured times to the reference machine.

The reference machine is a shared 2-core virtual machine whose speed
moves by up to 2x within minutes, with no steal time to show for it: a
fixed batch of sl2-batch jobs took from 0.22 to 0.44 s over 150 s, while
its ratio to the reference task below stayed within 6.5-7.6.  So the
runner times the reference task between operations, at least every
EVERY_S seconds, and reports each measured time scaled by CAL_S over the
median cost of the NEAREST reference timings around it: seconds at the
reference machine's speed.  The task is fixed and never calls tamelab,
so the scale does not depend on the program under test.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

CAL_S = 0.017  # cost of reference_task on the reference machine at full speed
EVERY_S = 0.25
NEAREST = 9


_ARRAY = np.arange(100_000, dtype=np.float64)
_BUFFER = np.empty_like(_ARRAY)
_SMALL = np.eye(2)


def reference_task() -> float:
    """Seconds taken by a fixed mix of interpreter work, small numpy
    calls and bulk array passes, the three kinds of work tamelab does.
    It allocates nothing large, so the heap the program left behind does
    not change its cost."""
    t0 = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(1000):
        np.linalg.det(_SMALL)
    for _ in range(5):
        np.multiply(_ARRAY, _ARRAY, out=_BUFFER)
        np.add(_BUFFER, 1.0, out=_BUFFER)
        np.sqrt(_BUFFER, out=_BUFFER)
        float(_BUFFER.sum())
    return perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        cost = reference_task()
        self.times.append(t0 + cost / 2)
        self.costs.append(cost)

    def sample_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor turning a time measured around `t` into reference seconds."""
        i = bisect.bisect_left(self.times, t)
        near = sorted(range(max(0, i - NEAREST), min(len(self.times), i + NEAREST)),
                      key=lambda j: abs(self.times[j] - t))[:NEAREST]
        return CAL_S / statistics.median(self.costs[j] for j in near)
