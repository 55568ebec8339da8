"""A fixed reference job that tells how fast the machine runs right now.

The benchmark shares its CPUs with other tenants, and their load makes
the same code run up to 1.5 times slower for tens of seconds at a time.
Medians within one run cannot remove a slowdown that lasts the whole
run.  So the benchmark interleaves a short block of fixed work with the
package's operations and divides each pass's times by how slow that
block ran in the same pass.

The block is small dense LAPACK calls and a plain interpreter loop, on
inputs fixed here.  None of it calls the package, so no change to the
package can change it.  Over 26 channel passes on a busy machine it
tracked the pass time best of the blocks tried: dividing by it cut the
pass time's coefficient of variation from 0.126 to 0.032, and that of
find_c2, channel_spectrum and the cold solve from 0.09-0.11 to
0.04-0.06.  Python float formatting and a sparse LU were tried as well;
they slowed down more than the package did on a busy machine, so adding
them made the correction overshoot.

A pass's speed is the mean time of its blocks over REFERENCE_S.  A time
divided by it reads in reference seconds: what the operation takes when
one block takes REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg as sla

# Time of one block on the machine the bounds were set on, when quiet.
REFERENCE_S = 0.0035
# A block runs at the start of every pass and then, between operations,
# once this much time has gone by since the last one.
EVERY_S = 0.2

_DENSE_N = 60
_DENSE_CALLS = 6
_LOOP = 40_000


class Calibrator:
    """Runs calibration blocks and keeps their times per pass."""

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((_DENSE_N, _DENSE_N))
        self._dense = a @ a.T + _DENSE_N * np.eye(_DENSE_N)
        self._last = -float("inf")
        self.pass_blocks: list[list[float]] = []

    def _work(self) -> None:
        for _ in range(_DENSE_CALLS):
            sla.eigvalsh(self._dense)
            sla.cho_factor(self._dense)
        total = 0
        for i in range(_LOOP):
            total += i

    def block(self) -> float:
        """Run one block and return its time in seconds."""
        start = time.perf_counter()
        self._work()
        end = time.perf_counter()
        self._last = end
        return end - start

    def start_pass(self) -> None:
        self.pass_blocks.append([self.block()])

    def tick(self) -> None:
        """Run a block if EVERY_S has gone by since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.pass_blocks[-1].append(self.block())

    def speeds(self) -> list[float]:
        """Per pass: mean block time over REFERENCE_S (above 1 is slower)."""
        return [statistics.fmean(b) / REFERENCE_S for b in self.pass_blocks]

    def block_s(self) -> float:
        """Median time of every block run so far."""
        return statistics.median(t for b in self.pass_blocks for t in b)
