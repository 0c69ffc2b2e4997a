"""Process-wide metrics registry: named counters, gauges, log histograms.

Unlike spans (opt-in, per-trace), metrics are always on and give the
engine a running picture of its workload (i-diff sizes per statement,
view-reuse cache hit rates, modification-log fold ratios).  A lookup by
name costs an accessor call, a dict lookup and a type check, and a
histogram observation a bucket computation; so hot paths hold
:class:`Handle`\\ s and observe once per distinct value.

One thread writes the metrics (the caller's, or a
:class:`~repro.obs.live.DemoLoop`'s); ``serve`` handler threads only
read the live objects.  An increment is ``value += n``, a creation one
dict store, and nothing here takes a lock.

The catalog of metrics the engine emits is documented in
``docs/OBSERVABILITY.md``.  All metric objects are created lazily on
first use, so the registry also serves extensions: any component may
``metrics.counter("my.metric").inc()`` without registration ceremony.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Union

from .hist import LogHistogram

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        self.value += n

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def as_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Gauge({self.name!r}, {self.value})"


Metric = Union[Counter, Gauge, LogHistogram]


class MetricsRegistry:
    """Namespace of metrics; one global default instance per process."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, **kwargs)
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def loghist(self, name: str, unit: str = "") -> LogHistogram:
        """A log-bucketed histogram (p50/p95/p99/max).

        The ``unit`` is sticky: the first caller's unit wins (an empty
        unit never overwrites a set one).
        """
        metric = self._get_or_create(name, LogHistogram, unit=unit)
        if unit and not metric.unit:
            metric.unit = unit
        return metric

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def as_dict(self) -> dict[str, dict[str, Any]]:
        """JSON-serializable snapshot of every registered metric."""
        return {
            name: metric.as_dict()
            for name, metric in sorted(self._metrics.items())
        }

    def reset(self) -> None:
        """Drop every metric (tests and fresh benchmark rounds); a new
        table, so every :class:`Handle` resolves again."""
        self._metrics = {}


_default = MetricsRegistry()
_current = _default


def registry() -> MetricsRegistry:
    """The currently active registry (the process default unless a
    :func:`scoped` block has swapped one in)."""
    return _current


@contextmanager
def scoped(reg: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Route module-level metric helpers into a private registry.

    The process-default registry is convenient for long-lived tools
    (benchmarks, ``repro.obs.serve``) but makes metric assertions
    order-dependent in a test suite: whichever test runs first leaves
    its counts behind for the next.  Wrapping each test in ``scoped()``
    gives it a fresh registry and restores the previous one on exit —
    including on exceptions, and correctly under nesting.

    Every module-level helper reads the registry reference exactly once
    per operation, so another thread calling one (a ``DemoLoop`` daemon
    thread, a ``serve`` handler thread) lands its whole operation in
    *one* registry — the old one or the new one, never a mix.  Scopes
    are entered by one thread: the swap is process-global, matching the
    registry itself.
    """
    global _current
    if reg is None:
        reg = MetricsRegistry()
    previous, _current = _current, reg
    try:
        yield reg
    finally:
        _current = previous


def counter(name: str) -> Counter:
    return _current.counter(name)


def gauge(name: str) -> Gauge:
    return _current.gauge(name)


def histogram(name: str) -> LogHistogram:
    """The log histogram *name*, whatever its unit (:func:`loghist`)."""
    return _current.loghist(name)


def loghist(name: str, unit: str = "") -> LogHistogram:
    return _current.loghist(name, unit)


class Handle:
    """One metric, looked up once per registry: ``handle()`` is what the
    module accessor named *kind* (``"counter"``, ``"histogram"``, …)
    returned for *args*, resolved again through it only once the active
    registry's metric table is another (a :func:`scoped` swap, a
    :meth:`MetricsRegistry.reset`)."""

    __slots__ = ("kind", "args", "_held")

    def __init__(self, kind: str, *args: str):
        self.kind, self.args = kind, args
        self._held: tuple = (None, None)  # (metric table, metric), replaced whole

    def __call__(self) -> Any:
        table, metric = self._held
        # The table is read first (a swap or reset mid-resolve resolves
        # again), the accessor by name (a wrapper installed on it sees this).
        current = _current._metrics
        if table is not current:
            metric = globals()[self.kind](*self.args)
            self._held = (current, metric)
        return metric
