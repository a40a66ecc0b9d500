"""A fixed NumPy/SciPy kernel timed between operations to track host speed.

On a shared host the speed of the same code drifts by 15-20% over tens of
seconds, which is more than the benchmark's bounds allow.  The kernel below
mixes the kinds of work voxelmatch does (separable filtering, a BLAS
product, streaming copies into fresh memory like the matcher's stacked
embeddings, interpreted Python) and never changes.  It runs before and
after every timed piece of work, and the work's raw seconds are scaled by
``NOMINAL_S`` over the kernel's time around it: seconds as they would read
on a host where the kernel takes ``NOMINAL_S``.  The raw seconds are
reported next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import ndimage

from .stats import median

NOMINAL_S = 0.055  # typical kernel time on the 2-core x86_64 host the benchmark was defined on
AROUND = 3         # kernel runs after each piece of work; their median is its speed


class Reference:
    def __init__(self, clock=time.perf_counter):
        rng = np.random.default_rng(0)
        self.volume = rng.random((64, 64, 64))
        self.lhs = rng.random((4096, 256))
        self.rhs = rng.random((256, 300))
        self.taps = np.full(9, 1.0 / 9.0)
        self.block = rng.random((32768, 32))  # 8 MiB
        self.clock = clock
        self.times: list[float] = []

    def run(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t = self.clock()
            x = self.volume
            for axis in (0, 1, 2):
                x = ndimage.correlate1d(x, self.taps, axis=axis, mode="nearest")
            for _ in range(4):
                self.lhs @ self.rhs
            for _ in range(4):
                np.concatenate([self.block, self.block], axis=1).sum()
            total = 0
            for i in range(100_000):
                total += i
            self.times.append(self.clock() - t)

    def factor(self) -> float:
        """Time the kernel ``AROUND`` times and return the scale factor for the
        work done since the previous call (or since the first ``run``)."""
        before = median(self.times[-AROUND:])
        self.run(AROUND)
        return NOMINAL_S / ((before + median(self.times[-AROUND:])) / 2.0)
