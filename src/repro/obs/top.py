"""``repro top`` — a live terminal dashboard over the telemetry stack.

Renders, once per refresh interval, a plain-text dashboard of the
engine's observability surface: per-view staleness (pending modlog
entries, seconds-behind), observed-lag and round-latency percentiles,
drift-monitor EWMAs with active COST504 alerts, and shard routing
balance when the engine is a :class:`~repro.core.ShardedEngine`.  No
curses — each frame is a full redraw behind an ANSI clear, so it works
in any terminal and degrades to plain sequential frames when piped.

Two data sources, same renderer:

* local (default): spin up a :class:`~repro.obs.live.DemoLoop` (BSMA
  on an :class:`~repro.core.IdIvmEngine`) in-process and read its engine
  directly;
* ``--url http://host:port`` — poll the ``/snapshot`` endpoint of a
  running ``python -m repro.obs.serve`` and render remotely.

``--once`` prints a single frame and exits (used by tests and CI).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request
from typing import Any, Optional

from .hist import LogHistogram
from .serve import SNAPSHOT_SCHEMA, build_snapshot

_CLEAR = "\x1b[2J\x1b[H"


def _ms(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value * 1000.0:.1f}ms"


def _num(value: Optional[float], digits: int = 2) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def _hist_from_metrics(snapshot: dict, name: str) -> Optional[LogHistogram]:
    data = snapshot.get("metrics", {}).get(name)
    if not data or data.get("type") != "loghist":
        return None
    return LogHistogram.from_dict(data, name)


def _quantiles(snapshot: dict, name: str) -> dict[str, Optional[float]]:
    hist = _hist_from_metrics(snapshot, name)
    if hist is None or not hist.count:
        return {"p50": None, "p95": None, "p99": None, "max": None}
    return hist.quantile_summary()


def render_dashboard(snapshot: dict[str, Any]) -> str:
    """One dashboard frame (plain text) from a ``/snapshot`` document."""
    lines: list[str] = []
    freshness = snapshot.get("freshness", {})
    drift = snapshot.get("drift", {})
    views_info = snapshot.get("views", {})
    metrics_map = snapshot.get("metrics", {})

    rounds = snapshot.get("rounds")
    rounds_metric = metrics_map.get("engine.maintain_rounds", {}).get("value")
    header = "repro top — idIVM freshness / latency / drift"
    lines.append(header)
    lines.append("=" * (len(header) + 10))

    round_q = _quantiles(snapshot, "engine.round_seconds")
    lines.append(
        "log position {pos}   retained {kept}   rounds {rounds}   round latency "
        "p50 {p50} p95 {p95} p99 {p99} max {max}".format(
            pos=freshness.get("log_position", "-"),
            kept=freshness.get("retained", "-"),
            rounds=rounds if rounds is not None else (rounds_metric or "-"),
            p50=_ms(round_q["p50"]),
            p95=_ms(round_q["p95"]),
            p99=_ms(round_q["p99"]),
            max=_ms(round_q["max"]),
        )
    )

    # -- shard balance -------------------------------------------------
    parallel = metrics_map.get("shard.rounds_parallel", {}).get("value", 0)
    broadcast = metrics_map.get("shard.rounds_broadcast", {}).get("value", 0)
    if parallel or broadcast:
        shard_q = _quantiles(snapshot, "shard.cost")
        apply_q = _quantiles(snapshot, "shard.apply_seconds")
        total = (parallel or 0) + (broadcast or 0)
        pct = 100.0 * (parallel or 0) / total if total else 0.0
        lines.append(
            "shards: {par} parallel / {bc} broadcast rounds ({pct:.0f}% parallel)   "
            "per-shard cost p50 {c50:g} p95 {c95:g}   apply p95 {a95}".format(
                par=parallel, bc=broadcast, pct=pct,
                c50=shard_q["p50"] or 0, c95=shard_q["p95"] or 0,
                a95=_ms(apply_q["p95"]),
            )
        )
    rebuilds = metrics_map.get("engine.prestate_rebuilds", {}).get("value")
    if rebuilds:
        lines.append(f"pre-state replica rebuilt {rebuilds}x: database changed outside the log")
    rollbacks = metrics_map.get("engine.view_rollbacks", {}).get("value")
    if rollbacks:
        lines.append(f"view-rounds rolled back {rollbacks}x: a view failed and kept its entries")
    lines.append("")

    # -- per-view table ------------------------------------------------
    drift_views = drift.get("views", {})
    alert_keys = {
        (a.get("view"), a.get("metric")) for a in drift.get("alerts", [])
    }
    view_names = sorted(
        set(freshness.get("views", {})) | set(views_info) | set(drift_views)
    )
    head = (
        f"{'view':<8} {'pending':>7} {'behind':>8} {'rounds':>6} "
        f"{'lag p95':>9} {'round p95':>10} {'cost':>8} {'route':<9} "
        f"{'drift':>7} alerts"
    )
    lines.append(head)
    lines.append("-" * len(head))
    for name in view_names:
        stale = freshness.get("views", {}).get(name, {})
        lag = stale.get("observed_lag", {})
        lag_hist = (
            LogHistogram.from_dict(lag, name) if lag.get("count") else None
        )
        round_view_q = _quantiles(snapshot, f"view.round_seconds.{name}")
        info = views_info.get(name, {})
        route = "-"
        if "parallel" in info:
            route = "parallel" if info["parallel"] else "broadcast"
        # the view's EWMA ratio farthest from 1.0
        ewmas = [s["ewma"] for s in drift_views.get(name, {}).values()
                 if s.get("ewma") is not None]
        worst = max(ewmas, key=lambda ewma: abs(ewma - 1.0), default=None)
        alerts = ",".join(
            sorted(m for v, m in alert_keys if v == name and m)
        )
        lines.append(
            f"{name:<8} {stale.get('pending', '-'):>7} "
            f"{_num(stale.get('seconds_behind'), 2) + 's':>8} "
            f"{stale.get('rounds', '-'):>6} "
            f"{_ms(lag_hist.percentile(95.0)) if lag_hist else '-':>9} "
            f"{_ms(round_view_q['p95']):>10} "
            f"{info.get('total_cost', '-'):>8} {route:<9} "
            f"{_num(worst):>7} {alerts or '-'}"
        )

    # -- statements bound from another view's rows (core.share) -------
    for name in view_names:
        for lender, k in sorted(views_info.get(name, {}).get("shared_from", {}).items()):
            lines.append(f"{name}: {k} statements shared with {lender}")

    # -- drift alert detail -------------------------------------------
    alerts = drift.get("alerts", [])
    if alerts:
        lines.append("")
        lines.append(f"COST504 drift alerts ({len(alerts)}):")
        for alert in alerts:
            lines.append(
                "  {view}/{metric}: EWMA {ewma} over {rounds} rounds ({kind})".format(
                    view=alert.get("view"),
                    metric=alert.get("metric"),
                    ewma=_num(alert.get("ewma")),
                    rounds=alert.get("rounds"),
                    kind=alert.get("kind"),
                )
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _fetch_snapshot(url: str) -> dict[str, Any]:
    target = url.rstrip("/") + "/snapshot"
    with urllib.request.urlopen(target, timeout=10) as response:
        data = json.loads(response.read().decode("utf-8"))
    if data.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(f"{target} did not return a {SNAPSHOT_SCHEMA} document")
    return data


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Dashboard flags (shared by ``repro top`` and this module's main)."""
    parser.add_argument("--url", default=None,
                        help="poll a running repro.obs.serve instead of "
                        "starting a local demo loop")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between frames (default 1.0)")
    parser.add_argument("--once", action="store_true",
                        help="render a single frame and exit")
    parser.add_argument("--frames", type=int, default=0,
                        help="stop after N frames (0 = until interrupted)")
    parser.add_argument("--users", type=int, default=120,
                        help="local demo loop: BSMA users")
    parser.add_argument("--updates", type=int, default=24,
                        help="local demo loop: updates per round")
    parser.add_argument("--views", nargs="*", default=None,
                        help="local demo loop: BSMA views to maintain")
    parser.add_argument("--no-clear", action="store_true",
                        help="print frames sequentially without ANSI clears")


def run(args: argparse.Namespace) -> int:
    loop = None
    if args.url is None:
        from .live import DemoLoop

        loop = DemoLoop(
            users=args.users,
            updates=args.updates,
            interval=args.interval,
            views=args.views,
        )
        loop.run_round()
        if not args.once:
            loop.start()

    frames = 0
    clear = "" if (args.no_clear or not sys.stdout.isatty()) else _CLEAR
    try:
        while True:
            if args.url is not None:
                snapshot = _fetch_snapshot(args.url)
            else:
                snapshot = build_snapshot(loop.engine, rounds=loop.rounds_run)
            print(clear + render_dashboard(snapshot), flush=True)
            frames += 1
            if args.once or (args.frames and frames >= args.frames):
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        if loop is not None:
            loop.stop()
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top",
        description="Live dashboard: per-view staleness, latency percentiles, "
        "cost drift.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
