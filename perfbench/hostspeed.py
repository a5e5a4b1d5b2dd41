"""Host speed, sampled between commands, to put timings on one scale.

The shared 2-CPU host the benchmark was tuned on changes speed by up to 1.7x
for minutes at a time, with CPU time equal to wall time: a fixed loop took
0.06 s in one minute and 0.10 s in the next. No run length averages that
out, so the benchmark times a fixed calibration unit between commands and
divides the run's command times by the host's slowness over the run, giving
seconds at reference speed.

The unit does the kind of work the program's hot paths do: power iteration on
tiny principal submatrices picked by fancy indexing, as in the exhaustive
subset search. Of the units tried it followed both an ``analyze`` round and a
128x128 ``bench --mode size`` command best. It lives here, outside the
program, so no change to the program moves it; both commits of a comparison
are scaled by the same unit.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

# Seconds per unit at reference speed, rounded from medians of 2.2-3.3 ms over
# sets of 500 units on a 2-CPU sandbox (Python 3.11, numpy 2.4, one BLAS
# thread). Only the scale of the reported figures depends on it.
REFERENCE_UNIT_S = 0.003

_M = np.random.default_rng(0).random((7, 7))


def unit() -> float:
    """Six power steps on each 3- and 4-node principal submatrix of a 7x7."""
    best = 0.0
    for k in (3, 4):
        for idx in combinations(range(7), k):
            sub = _M[np.ix_(idx, idx)]
            x = np.ones(k)
            for _ in range(6):
                y = sub @ x
                lam = float(y.max())
                x = y / lam
            best = max(best, lam)
    return best


class Slowness:
    """Calibration units run after commands, about `share` of their wall time."""

    def __init__(self, share: float = 0.1) -> None:
        self.share = share
        self.units = 0
        self.seconds = 0.0

    def sample(self, after_wall: float) -> None:
        """Run units for about share * after_wall seconds, and at least one."""
        budget = self.share * after_wall
        start = time.perf_counter()
        while True:
            unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                break
        self.seconds += elapsed

    def factor(self) -> float:
        """Host slowness against reference speed; > 1 means a slow host."""
        return self.seconds / self.units / REFERENCE_UNIT_S


def measure(seconds: float) -> float:
    """Host slowness over `seconds` of calibration units."""
    s = Slowness(share=1.0)
    s.sample(seconds)
    return s.factor()
