"""Live metrics endpoint: Prometheus text + JSON snapshots over HTTP.

``python -m repro.obs.serve`` starts a :class:`~repro.obs.live.DemoLoop`
(a BSMA maintenance loop) and a stdlib ``ThreadingHTTPServer``
exposing:

* ``/metrics``   — Prometheus text exposition (format 0.0.4).  Counters
  and gauges map directly; every histogram is log-bucketed and becomes
  a native Prometheus histogram with cumulative ``le`` buckets taken
  from the exact frexp bucket bounds.  Per-view and per-phase metric
  families are folded into labels
  (``repro_view_round_seconds{view="Q7"}``) instead of per-view metric
  names.
* ``/snapshot``  — a JSON document with the full registry, freshness
  report, drift monitor state and per-view last-round reports; this is
  the wire format ``repro top --url`` consumes.
* ``/freshness`` — just the freshness report (the CI smoke artifact).
* ``/healthz``   — liveness (also reports rounds completed so far);
  returns 503 with ``{"ok": false, "error": ...}`` once the demo loop's
  background thread has died.

Everything here is stdlib-only; :func:`validate_exposition` is a small
self-check used by tests and the CI smoke job so we never publish an
exposition Prometheus would reject.
"""

from __future__ import annotations

import argparse
import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional

from . import metrics
from .hist import LogHistogram
from .metrics import Counter, Gauge, MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Metric-name prefixes whose trailing component is really a label.
#: ``view.round_seconds.Q*1`` would otherwise mint an illegal (and
#: cardinality-exploding) metric name per view.
_LABELED_PREFIXES = (
    ("view.round_seconds.", "repro_view_round_seconds", "view"),
    ("script.phase_seconds.", "repro_script_phase_seconds", "phase"),
    ("view.define_seconds.", "repro_view_define_seconds", "view"),
)


def _sanitize(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _labels(pairs: dict[str, str]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in sorted(pairs.items())
    )
    return "{" + body + "}"


def _fmt(value: Any) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _family(name: str) -> tuple[str, dict[str, str]]:
    """Map a registry metric name to (prometheus family, labels)."""
    for prefix, family, label in _LABELED_PREFIXES:
        if name.startswith(prefix) and len(name) > len(prefix):
            return family, {label: name[len(prefix):]}
    return _sanitize(name), {}


def _hist_lines(family: str, labels: dict[str, str], hist: LogHistogram) -> list[str]:
    """Cumulative-bucket lines for one labeled LogHistogram."""
    from .hist import bucket_bounds

    lines = []
    cumulative = hist.zero_count
    if hist.zero_count:
        lines.append(f"{family}_bucket{_labels({**labels, 'le': '0'})} {cumulative}")
    for idx in sorted(hist.buckets):
        cumulative += hist.buckets[idx]
        upper = bucket_bounds(idx)[1]
        lines.append(
            f"{family}_bucket{_labels({**labels, 'le': repr(upper)})} {cumulative}"
        )
    # Read once, after the buckets: the writer moves the count first, so
    # it covers them even while a round observes.
    count = hist.count
    lines.append(f"{family}_bucket{_labels({**labels, 'le': '+Inf'})} {count}")
    lines.append(f"{family}_sum{_labels(labels)} {_fmt(hist.total)}")
    lines.append(f"{family}_count{_labels(labels)} {count}")
    return lines


def render_prometheus(
    registry: Optional[MetricsRegistry] = None, engine=None
) -> str:
    """The Prometheus text exposition for a registry (+ engine extras).

    With an *engine* attached, per-view freshness (pending entries,
    seconds-behind, observed-lag histograms), drift EWMAs, cache sizes
    (:func:`cache_rows`) and ``Input_pre`` replica sizes
    (:func:`prestate_rows`) are emitted as labeled families on top of the
    raw registry contents.
    """
    registry = registry if registry is not None else metrics.registry()
    # family -> (prom type, [(labels, metric-ish)]); insertion order kept
    # so each family's # TYPE header is emitted exactly once.
    families: dict[str, tuple[str, list[str]]] = {}

    def add(family: str, prom_type: str, lines: list[str]) -> None:
        if family not in families:
            families[family] = (prom_type, [])
        families[family][1].extend(lines)

    for name in registry.names():
        metric = registry._metrics[name]
        family, labels = _family(name)
        if isinstance(metric, Counter):
            add(family, "counter", [f"{family}{_labels(labels)} {_fmt(metric.value)}"])
        elif isinstance(metric, Gauge):
            if metric.value is None:
                continue
            add(family, "gauge", [f"{family}{_labels(labels)} {_fmt(metric.value)}"])
        else:  # LogHistogram
            add(family, "histogram", _hist_lines(family, labels, metric))

    if engine is not None:
        freshness = getattr(engine, "freshness", None)
        drift = getattr(engine, "drift", None)
        if freshness is not None:
            now = freshness.log.clock()
            for family, value in (
                ("repro_modlog_position", freshness.log_position),
                ("repro_modlog_retained_entries", len(freshness.log.entries)),
            ):
                add(family, "gauge", [f"{family} {value}"])
            for view in freshness.views():
                staleness = freshness.staleness(view, now=now)
                labels = {"view": view}
                add(
                    "repro_view_pending_entries",
                    "gauge",
                    [f"repro_view_pending_entries{_labels(labels)} {staleness.pending}"],
                )
                add(
                    "repro_view_seconds_behind",
                    "gauge",
                    [
                        f"repro_view_seconds_behind{_labels(labels)} "
                        f"{_fmt(staleness.seconds_behind)}"
                    ],
                )
                add(
                    "repro_view_rounds",
                    "counter",
                    [f"repro_view_rounds{_labels(labels)} {staleness.rounds}"],
                )
                lag = freshness.lag_histogram(view)
                if lag is not None and lag.count:
                    add(
                        "repro_view_lag_seconds",
                        "histogram",
                        _hist_lines("repro_view_lag_seconds", labels, lag),
                    )
        if drift is not None:
            for state in drift.states():
                if state.ewma is None:
                    continue
                labels = {"view": state.view, "metric": state.metric}
                add(
                    "repro_drift_ewma",
                    "gauge",
                    [f"repro_drift_ewma{_labels(labels)} {_fmt(state.ewma)}"],
                )
            add(
                "repro_drift_alerts",
                "gauge",
                [f"repro_drift_alerts {len(drift.alerts())}"],
            )
        for view, cache, kind, rows in cache_rows(engine):
            labels = {"view": view, "cache": cache, "kind": kind}
            add("repro_cache_rows", "gauge", [f"repro_cache_rows{_labels(labels)} {rows}"])
        for table, rows in prestate_rows(engine).items():
            add("repro_prestate_rows", "gauge",
                [f"repro_prestate_rows{_labels({'table': table})} {rows}"])

    out: list[str] = []
    for family, (prom_type, lines) in families.items():
        out.append(f"# TYPE {family} {prom_type}")
        out.extend(lines)
    return "\n".join(out) + "\n" if out else "\n"


# ----------------------------------------------------------------------
SNAPSHOT_SCHEMA = "repro.obs.snapshot"
SNAPSHOT_VERSION = 1


def build_snapshot(
    engine=None, registry: Optional[MetricsRegistry] = None, rounds: Optional[int] = None
) -> dict[str, Any]:
    """The JSON document behind ``/snapshot`` (and ``repro top --url``)."""
    registry = registry if registry is not None else metrics.registry()
    snapshot: dict[str, Any] = {
        "schema": SNAPSHOT_SCHEMA,
        "version": SNAPSHOT_VERSION,
        "metrics": registry.as_dict(),
    }
    if rounds is not None:
        snapshot["rounds"] = rounds
    if engine is not None:
        freshness = getattr(engine, "freshness", None)
        drift = getattr(engine, "drift", None)
        if freshness is not None:
            snapshot["freshness"] = freshness.report()
        if drift is not None:
            snapshot["drift"] = drift.snapshot()
        views: dict[str, Any] = {}
        for name, report in getattr(engine, "last_reports", {}).items():
            entry: dict[str, Any] = {"total_cost": report.total_cost}
            if report.host is not None:
                entry["host"] = report.host  # a hosted view: its host's round maintained it
            if report.reused:
                shared_from: dict[str, int] = {}
                for _stmt, lender in report.reused:
                    shared_from[lender] = shared_from.get(lender, 0) + 1
                entry["shared_from"] = shared_from
            if hasattr(report, "parallel"):
                entry["parallel"] = report.parallel
                entry["critical_path"] = report.critical_path()
                if report.broadcast_reason:
                    entry["broadcast_reason"] = report.broadcast_reason
            views[name] = entry
        for name, cache, kind, rows in cache_rows(engine):
            views.setdefault(name, {}).setdefault(f"{kind}_rows", {})[cache] = rows
        snapshot["views"] = views
        snapshot["prestate_rows"] = prestate_rows(engine)
    return snapshot


def cache_rows(engine) -> list[tuple[str, str, str, int]]:
    """``(view, cache, kind, rows)`` for every intermediate cache (kind
    ``"cache"``) and operator cache (``"opcache"``) of *engine*'s views,
    read off the tables by the scrape, never by a round."""
    return [
        (name, table.name, kind, len(table))
        for name, view in sorted(getattr(engine, "views", {}).items())
        for kind, tables in (("cache", getattr(view, "caches", {})),
                             ("opcache", getattr(view, "operator_caches", {})))
        for table in tables.values()
        if table is not view.table  # the view itself is no cache
    ]


def prestate_rows(engine) -> dict[str, int]:
    """``{table: rows}`` of *engine*'s ``Input_pre`` replica (empty until
    the first round builds it), read by the scrape, never by a round."""
    replica = getattr(getattr(engine, "_pre", None), "db", None)
    return {} if replica is None else {n: len(t) for n, t in sorted(replica.tables.items())}


# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(\{[^{}]*\})?"  # optional labels
    r" (NaN|[+-]Inf|-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$"  # value
)
_PROM_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}
_SUFFIXES = ("_bucket", "_sum", "_count")


def validate_exposition(text: str) -> list[str]:
    """Self-check a Prometheus text exposition; returns error strings.

    Checks the essentials a scrape would reject: sample-line syntax,
    every sample belonging to a ``# TYPE``-declared family, no duplicate
    TYPE declarations, and (for histograms) cumulative bucket counts
    that are monotone and agree with ``_count``.
    """
    errors: list[str] = []
    declared: dict[str, str] = {}
    bucket_state: dict[str, tuple[float, int]] = {}  # series -> (last le, last cum)
    counts: dict[str, int] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in _PROM_TYPES:
                errors.append(f"line {lineno}: malformed TYPE declaration: {line!r}")
                continue
            if parts[2] in declared:
                errors.append(f"line {lineno}: duplicate TYPE for {parts[2]}")
            declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: malformed sample line: {line!r}")
            continue
        name, labels = match.group(1), match.group(2) or ""
        family = name
        for suffix in _SUFFIXES:
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                family = name[: -len(suffix)]
                break
        if family not in declared:
            errors.append(f"line {lineno}: sample {name!r} has no TYPE declaration")
            continue
        if declared[family] == "histogram":
            if name.endswith("_bucket"):
                le_match = re.search(r'le="([^"]*)"', labels)
                if le_match is None:
                    errors.append(f"line {lineno}: histogram bucket missing le label")
                    continue
                le_raw = le_match.group(1)
                le = float("inf") if le_raw == "+Inf" else float(le_raw)
                stripped = re.sub(r',?le="[^"]*"', "", labels)
                if stripped == "{}":
                    stripped = ""
                series = family + stripped
                cum = int(float(match.group(3)))
                prev = bucket_state.get(series)
                if prev is not None:
                    if le <= prev[0]:
                        errors.append(
                            f"line {lineno}: bucket le={le_raw} not increasing"
                        )
                    if cum < prev[1]:
                        errors.append(
                            f"line {lineno}: bucket count decreased ({cum} < {prev[1]})"
                        )
                bucket_state[series] = (le, cum)
                if le == float("inf"):
                    counts.setdefault(series, cum)
            elif name.endswith("_count"):
                series = family + labels
                inf_cum = counts.get(series)
                if inf_cum is not None and inf_cum != int(float(match.group(3))):
                    errors.append(
                        f"line {lineno}: _count disagrees with +Inf bucket for {series}"
                    )
    return errors


# ----------------------------------------------------------------------
class MetricsHandler(BaseHTTPRequestHandler):
    """Routes /metrics, /snapshot, /freshness, /healthz."""

    server_version = "repro-obs/1"
    # installed by serve(); class attributes so the stdlib handler
    # factory (which instantiates per request) can reach them.
    engine = None
    registry: Optional[MetricsRegistry] = None
    loop = None

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(self.registry, engine=self.engine)
            self._reply(body, "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/snapshot":
            rounds = self.loop.rounds_run if self.loop is not None else None
            body = json.dumps(
                build_snapshot(self.engine, self.registry, rounds=rounds), indent=2
            )
            self._reply(body, "application/json")
        elif path == "/freshness":
            freshness = getattr(self.engine, "freshness", None)
            if freshness is None:
                self._reply(json.dumps({"error": "no freshness tracker"}),
                            "application/json", status=404)
            else:
                self._reply(json.dumps(freshness.report(), indent=2),
                            "application/json")
        elif path == "/healthz":
            rounds = self.loop.rounds_run if self.loop is not None else None
            healthy = self.loop.healthy if self.loop is not None else True
            doc: dict[str, Any] = {"ok": healthy, "rounds": rounds}
            if not healthy:
                doc["error"] = self.loop.last_error or "loop thread died"
            self._reply(json.dumps(doc), "application/json",
                        status=200 if healthy else 503)
        else:
            self._reply("not found\n", "text/plain", status=404)

    def _reply(self, body: str, content_type: str, status: int = 200) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
        pass  # keep scrapes out of stderr


def serve(
    engine=None,
    registry: Optional[MetricsRegistry] = None,
    host: str = "127.0.0.1",
    port: int = 9301,
    loop=None,
) -> ThreadingHTTPServer:
    """Build a server bound to (host, port); caller runs serve_forever."""
    handler = type(
        "BoundMetricsHandler",
        (MetricsHandler,),
        {"engine": engine, "registry": registry, "loop": loop},
    )
    return ThreadingHTTPServer((host, port), handler)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.serve",
        description="Serve live idIVM telemetry for a demo BSMA maintenance loop.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9301)
    parser.add_argument("--users", type=int, default=120,
                        help="BSMA users in the demo database")
    parser.add_argument("--updates", type=int, default=24,
                        help="logged updates per maintenance round")
    parser.add_argument("--interval", type=float, default=0.5,
                        help="seconds between maintenance rounds")
    parser.add_argument("--views", nargs="*", default=None,
                        help="BSMA views to maintain (default Q7 Q10 Q15 Q18)")
    args = parser.parse_args(argv)

    from .live import DemoLoop

    loop = DemoLoop(
        users=args.users,
        updates=args.updates,
        interval=args.interval,
        views=args.views,
    )
    loop.run_round()  # have data before the first scrape
    loop.start()
    server = serve(
        engine=loop.engine, host=args.host, port=args.port, loop=loop
    )
    print(
        f"serving on http://{args.host}:{server.server_address[1]} "
        f"(endpoints: /metrics /snapshot /freshness /healthz; "
        f"views {' '.join(loop.view_names)})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        loop.stop()
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
