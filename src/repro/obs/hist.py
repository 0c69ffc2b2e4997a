"""Log-bucketed histograms: percentiles and exact merges.

Every histogram of the metrics registry is a :class:`LogHistogram`:
freshness and latency telemetry live in the tail (Snowflake Dynamic
Tables gates on observed-lag *percentiles*, not means), and a size
histogram reports its count, sum, min, max and mean from the same
fields.  Buckets are sparse and log-spaced (4 sub-buckets per power of
two, ≤ ~12% relative error at any quantile), computed with exact
``math.frexp`` integer arithmetic so bucket assignment has no
float-boundary ambiguity.  Merging two histograms adds bucket counts —
merge is associative and commutative to the count, which is what lets
per-shard histograms reconcile *exactly* with merged ones.

One thread writes a histogram (the caller's, or a
:class:`~repro.obs.live.DemoLoop`'s); ``serve`` handler threads only
read it.  A histogram exposes ``p50/p95/p99/max`` and serializes through
``as_dict`` / ``from_dict``, so traces, ``BENCH_*.json`` payloads and
the ``/metrics`` endpoint all speak the same histogram.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Iterable, Optional, Union

Number = Union[int, float]

#: Sub-buckets per power of two.  Must be a power of two so the
#: sub-bucket computation below stays exact in binary floating point.
SUBBUCKETS = 4

#: The smallest positive normal float: below it a bucket bound may round.
_MIN_NORMAL = sys.float_info.min

#: The quantiles every summary exports.
SUMMARY_QUANTILES = (50.0, 95.0, 99.0)


def bucket_index(value: float) -> int:
    """Bucket index for a positive value (exact, no log() rounding).

    ``math.frexp`` decomposes ``value = m * 2**e`` with ``0.5 <= m < 1``;
    the mantissa picks one of :data:`SUBBUCKETS` linear sub-buckets
    within the octave.  Because ``m - 0.5`` and the multiply by
    ``2 * SUBBUCKETS`` are exact in binary floating point, values that
    sit precisely on a bucket boundary always land in the upper bucket —
    deterministically, on every platform.
    """
    m, e = math.frexp(value)
    sub = int((m - 0.5) * (2 * SUBBUCKETS))
    return e * SUBBUCKETS + sub


def bucket_bounds(index: int) -> tuple[float, float]:
    """``[lower, upper)`` value range of bucket *index*."""
    e, sub = divmod(index, SUBBUCKETS)
    base = math.ldexp(1.0, e - 1)
    return base * (1 + sub / SUBBUCKETS), base * (1 + (sub + 1) / SUBBUCKETS)


class LogHistogram:
    """Sparse log-bucketed histogram with exact, associative merging.

    Non-positive observations land in a dedicated zero bucket (sizes
    and latencies are never negative; a zero is a real observation and
    must count toward ranks).
    """

    __slots__ = ("name", "unit", "count", "total", "min", "max", "zero_count", "buckets")

    def __init__(self, name: str = "", unit: str = ""):
        self.name = name
        #: Display/export unit: "seconds" histograms are wall-clock
        #: (machine-dependent — the perf gate slack-gates them), "rows"/
        #: "accesses" histograms are deterministic workload facts.
        self.unit = unit
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.zero_count = 0
        self.buckets: dict[int, int] = {}

    # ------------------------------------------------------------------
    def observe(self, value: Number, times: int = 1) -> None:
        """Record *value*, *times* over (a round that skips *n*
        statements observes their zero diff rows in one call).  The
        count moves first, so a reader on another thread never sees more
        bucketed observations than counted ones."""
        self.count += times
        self.total += value * times
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0:
            self.zero_count += times
        else:
            idx = bucket_index(float(value))
            self.buckets[idx] = self.buckets.get(idx, 0) + times

    def observe_many(self, values: Iterable[Number]) -> None:
        """Record each of *values* once, in their order (so ``total`` is
        bit-identical to observing them one by one), in one call.  A run
        of values in one bucket — a round's lags over its monotone log
        stamps — costs one :func:`bucket_index`: the next value is tested
        against the bucket's bounds first."""
        n = zeros = run = 0
        total, low, high = self.total, self.min, self.max
        runs: list[tuple[int, int]] = []
        idx, lower, upper = 0, 0.0, 0.0
        for value in values:
            n += 1
            total += value
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
            if value <= 0:
                zeros += 1
                continue
            value = float(value)  # what bucket_index reads
            if lower <= value < upper:
                run += 1
                continue
            if run:
                runs.append((idx, run))
            idx, run = bucket_index(value), 1
            # bounds are exact products only among normal floats
            lower, upper = bucket_bounds(idx) if value >= _MIN_NORMAL else (0.0, 0.0)
        if run:
            runs.append((idx, run))
        self.count += n  # first, as in observe
        self.total, self.min, self.max = total, low, high
        self.zero_count += zeros
        buckets = self.buckets
        for i, times in runs:
            buckets[i] = buckets.get(i, 0) + times

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold *other*'s observations into self (exact) and return self."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        self.zero_count += other.zero_count
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        if not self.unit:
            self.unit = other.unit
        return self

    @classmethod
    def merged(
        cls, parts: Iterable["LogHistogram"], name: str = "", unit: str = ""
    ) -> "LogHistogram":
        out = cls(name, unit)
        for part in parts:
            out.merge(part)
        return out

    # ------------------------------------------------------------------
    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """The q-th percentile (bucket upper bound, clamped to the
        observed ``max`` so ``p50 <= p95 <= p99 <= max`` always holds)."""
        if not self.count:
            return None
        rank = max(1, math.ceil(self.count * q / 100.0))
        seen = self.zero_count
        if rank <= seen:
            return 0.0
        value = None
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if rank <= seen:
                value = bucket_bounds(idx)[1]
                break
        if value is None:  # numerical safety: rank past the last bucket
            value = float(self.max if self.max is not None else 0.0)
        if self.max is not None:
            value = min(value, float(self.max))
        return value

    def quantile_summary(self) -> dict[str, Optional[float]]:
        """The operator-facing digest: p50/p95/p99/max (+count)."""
        out: dict[str, Optional[float]] = {
            f"p{q:g}": self.percentile(q) for q in SUMMARY_QUANTILES
        }
        out["max"] = float(self.max) if self.max is not None else None
        return out

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "type": "loghist",
            "unit": self.unit,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "zero_count": self.zero_count,
            "buckets": {str(idx): n for idx, n in sorted(self.buckets.items())},
        }
        out.update(self.quantile_summary())
        return out

    @classmethod
    def from_dict(cls, data: dict, name: str = "") -> "LogHistogram":
        hist = cls(name, data.get("unit", ""))
        hist.count = int(data.get("count", 0))
        hist.total = data.get("sum", 0)
        hist.min = data.get("min")
        hist.max = data.get("max")
        hist.zero_count = int(data.get("zero_count", 0))
        hist.buckets = {
            int(idx): int(n) for idx, n in data.get("buckets", {}).items()
        }
        return hist

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"LogHistogram({self.name!r}, n={self.count}, sum={self.total})"
