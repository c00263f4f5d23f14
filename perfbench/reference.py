"""A fixed reference computation that gauges the machine's current speed.

On a shared VM the speed of a vCPU changes by up to 2x for seconds to
minutes at a time, as other tenants come and go, and a run's wall times
follow that share of slow time more than they follow the program.  The
benchmark therefore brackets every timed block with a short run of this
reference, which uses none of the package's code: interpreter work and
small numpy products, the mix a solve is made of.  A block's wall time is
scaled by REFERENCE_CHUNK_S over the mean chunk time measured just before
and just after it, which gives the time the block would take on a machine
where one chunk takes REFERENCE_CHUNK_S.  A change to the program moves
the block's time and not the reference, so it moves the scaled time by
the same share.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one reference chunk takes at the speed the benchmark reports
# at; about the mean of a 2-vCPU Intel Xeon VM with Python 3.11.
REFERENCE_CHUNK_S = 0.003
# Chunks in one measurement: about 0.1 s of work.
CHUNKS = 35
# Products and interpreter loops in one chunk.
STEPS = 400


class Reference:
    """Measures the reference between timed blocks and scales their times."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.random((81, 96))
        self.vector = rng.random(96)
        self.samples = []
        self.last = self.measure()

    def _chunk(self):
        total = 0.0
        for _ in range(STEPS):
            v = self.matrix @ self.vector
            total += float(v[int(np.argmin(v))])
            total += sum(i * i for i in range(50))
        return total

    def measure(self):
        """Mean wall seconds of one chunk, measured now."""
        t0 = time.perf_counter()
        for _ in range(CHUNKS):
            self._chunk()
        chunk_s = (time.perf_counter() - t0) / CHUNKS
        self.samples.append(chunk_s)
        return chunk_s

    def scale(self):
        """Factor that takes wall times of the block just ended to reference speed.

        Call it right after the block; the measurement it makes also
        brackets the next block.
        """
        before = self.last
        self.last = self.measure()
        return REFERENCE_CHUNK_S / ((before + self.last) / 2)
