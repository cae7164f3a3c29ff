"""Calibration loops that take host-speed drift out of the timings.

On a shared host the speed at which the same code runs jumps by up to a
factor of two within a second, and a run of the benchmark cannot choose its
neighbours. The benchmark therefore times a fixed calibration loop that uses
none of cicsim right before and right after every operation, and scales the
operation's time by REFERENCE_S / (the mean of those two loop times). The
reported times are host times on a host that runs the loop in REFERENCE_S
seconds; the uncalibrated figures are printed beside them and kept in the
--out record.

There are two loops because the drift hits interpreted Python and numpy's
vectorised kernels differently: `python` hashes, fills and sorts a dict and
encodes JSON, like the simulator's protocol and Merkle code; `numpy` draws
binomial arrays and masks them, like the consensus Monte Carlo. The loops
and their reference times are part of the benchmark definition: changing
either changes every reported time.

The loops run with the garbage collector off. Otherwise a collection that
the operation's leftovers make due would land in the loop, lengthen it, and
so shorten the operation's reported time. The loops make no cycles, so
reference counting frees all they allocate.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = {"python": 0.003, "numpy": 0.005}


def python_loop():
    table = {}
    h = b"cicsim-perfbench-calibration"
    for i in range(1000):
        h = hashlib.sha256(h).digest()
        table[h] = (int.from_bytes(h[:8], "big") * 31 + i) % 1_000_003
        table.get(h[:16])
    return len(json.dumps({k.hex(): v for k, v in sorted(table.items())[:200]}))


class NumpyLoop:
    def __init__(self):
        self.rng = np.random.default_rng(0)

    def __call__(self):
        honest = self.rng.binomial(880, 0.125, size=20_000)
        byzantine = self.rng.binomial(720, 0.125, size=20_000)
        score = np.zeros(20_000, dtype=np.int64)
        for _ in range(6):
            score += (honest - byzantine) * (honest + byzantine)
            score[score > 500] -= 1
        return int(score.sum())


class Calibration:
    """One calibration loop and its reference time."""

    def __init__(self, kind: str):
        self.reference = REFERENCE_S[kind]
        self.loop = NumpyLoop() if kind == "numpy" else python_loop

    def time(self) -> float:
        """Seconds one pass of the loop takes now, without garbage collection."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self.loop()
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def scale(self, seconds: float, *samples: float) -> float:
        """`seconds` on the reference host, given loop times taken around it."""
        return seconds * self.reference / statistics.median(samples)
