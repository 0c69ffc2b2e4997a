"""Observability: hierarchical spans, a metrics registry, trace export.

The paper's empirical sections (Figures 10-12, Tables 2-3) attribute
maintenance cost to phases and operators; this package provides the
machinery to do the same attribution live, on every maintenance round:

* :mod:`repro.obs.spans` — timed, access-counted spans forming a tree
  (engine round -> phase -> ∆-script statement -> plan/IR operator);
* :mod:`repro.obs.metrics` — a process-wide registry of named counters,
  gauges and log histograms (i-diff sizes, cache hit rates, ...);
* :mod:`repro.obs.hist` — log-bucketed percentile histograms with
  exact merging;
* :mod:`repro.obs.freshness` — per-view staleness (pending modlog
  entries, seconds-behind, observed-lag percentiles);
* :mod:`repro.obs.drift` — EWMA monitoring of the symbolic cost model's
  predicted-vs-observed ratio (COST504);
* :mod:`repro.obs.trace` — JSONL export of a recorded span tree, schema
  validation, and a pretty terminal renderer;
* :mod:`repro.obs.serve` — stdlib HTTP endpoint exposing /metrics
  (Prometheus text) and /snapshot (JSON);
* :mod:`repro.obs.top` — terminal dashboard (``python -m repro top``).

Tracing is off by default: with no recorder installed every
instrumentation site reduces to a single global read, so baseline
benchmark numbers are unaffected.

One thread writes all of it — the caller's, or a
:class:`~repro.obs.live.DemoLoop`'s — and the ``serve`` handler threads
only read the live objects; nothing here takes a lock.
"""

from .drift import DriftAlert, DriftMonitor
from .freshness import FreshnessTracker, ViewStaleness
from .hist import LogHistogram
from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    loghist,
    registry,
    scoped,
)
from .spans import (
    Span,
    SpanRecorder,
    current_recorder,
    current_span,
    enabled,
    recording,
    span,
)
from .trace import (
    load_trace,
    phase_totals,
    reconcile_trace,
    render_tree,
    validate_trace,
    write_trace,
)

__all__ = [
    "Counter",
    "DriftAlert",
    "DriftMonitor",
    "FreshnessTracker",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "ViewStaleness",
    "counter",
    "current_recorder",
    "current_span",
    "enabled",
    "gauge",
    "histogram",
    "load_trace",
    "loghist",
    "phase_totals",
    "reconcile_trace",
    "recording",
    "registry",
    "render_tree",
    "scoped",
    "span",
    "validate_trace",
    "write_trace",
]
