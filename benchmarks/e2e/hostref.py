"""Host-speed reference: a fixed loop the harness interleaves with the rounds.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent for seconds to minutes at a time (neighbours on the same
cores and caches), and the drift shows in CPU time as much as in wall
time.  No estimator over one run's samples removes a slowdown that lasts
the whole run, so the harness measures the host beside the program: a
*slice* of this loop — string-keyed lookups in a dict of tuples larger
than the caches, building a tuple per hit; the same kind of work the
maintenance rounds do, in the benchmark's own code and none of
``repro``'s — runs between rounds.  A stretch of the run whose slices
took ``f`` times ``NOMINAL_S`` has its timings divided by ``f``.

Measured here (README, "How steady it is"): across runs whose raw median
round time spread 12-21 %, the normalised one spread 1.5-4 %.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

#: Seconds one slice takes on the quiet host the first readings were
#: taken on; normalised timings read as milliseconds *on that host*.
NOMINAL_S = 2.4e-3

TABLE_ROWS = 100_000
SLICE_LOOKUPS = 3_000
_SEQUENCES = 64


class HostRef:
    """The table and the key sequences; fixed, independent of ``--seed``."""

    def __init__(self) -> None:
        rng = random.Random(5)
        keys = [f"part{i}" for i in range(TABLE_ROWS)]
        self._table = {key: (key, i, i * 7) for i, key in enumerate(keys)}
        self._sequences = [
            [keys[rng.randrange(TABLE_ROWS)] for _ in range(SLICE_LOOKUPS)]
            for _ in range(_SEQUENCES)
        ]
        self._next = 0

    def slice(self) -> float:
        """Run one slice; returns its wall seconds."""
        sequence = self._sequences[self._next % _SEQUENCES]
        self._next += 1
        table = self._table
        hits: list[tuple] = []
        keep = hits.append
        started = perf_counter()
        for key in sequence:
            row = table[key]
            keep((row[0], row[1] + 1))
        return perf_counter() - started

    def slices(self, n: int) -> list[float]:
        return [self.slice() for _ in range(n)]


def factor(slice_seconds: list[float]) -> float:
    """How many times slower than nominal the host ran while these
    slices were taken."""
    return statistics.median(slice_seconds) / NOMINAL_S
