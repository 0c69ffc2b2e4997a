"""One-shot observability smoke: boot the endpoint, scrape, validate.

``python -m repro.obs.smoke`` is what ``make smoke-obs`` and the CI
``obs-smoke`` job run.  It starts a real :class:`~repro.obs.live.DemoLoop`
plus ``ThreadingHTTPServer`` on an ephemeral port, fetches every endpoint
over actual HTTP, validates the Prometheus exposition with
:func:`repro.obs.serve.validate_exposition`, sanity-checks the snapshot
document, and writes the freshness report to ``--out`` (the CI
artifact).  Non-zero exit on any failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.request
from typing import Optional

from .serve import serve, validate_exposition

#: Families any live scrape of the demo loop must expose.
_REQUIRED_FAMILIES = (
    "repro_engine_round_seconds",
    "repro_view_round_seconds",
    "repro_view_pending_entries",
    "repro_view_lag_seconds",
    "repro_modlog_position",
    "repro_modlog_retained_entries",
    "repro_drift_ewma",
    "repro_cache_rows",
    "repro_prestate_rows",
)


def _get(base: str, path: str) -> str:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        if response.status != 200:
            raise RuntimeError(f"GET {path} -> HTTP {response.status}")
        return response.read().decode("utf-8")


def run_smoke(
    rounds: int = 3,
    users: int = 60,
    updates: int = 12,
    out: Optional[str] = None,
) -> list[str]:
    """Run the whole smoke; returns a list of failures (empty = pass)."""
    from .live import DemoLoop

    failures: list[str] = []
    loop = DemoLoop(users=users, updates=updates)
    for _ in range(rounds):
        loop.run_round()

    server = serve(engine=loop.engine, loop=loop, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        text = _get(base, "/metrics")
        errors = validate_exposition(text)
        failures.extend(f"/metrics: {e}" for e in errors)
        for family in _REQUIRED_FAMILIES:
            if family not in text:
                failures.append(f"/metrics: family {family} missing")
        failures.extend(
            f"/metrics: {line!r}: every histogram is a log histogram"
            for line in text.splitlines()
            if line.startswith("# TYPE ") and line.endswith(" summary")
        )
        print(f"/metrics   {len(text.splitlines())} lines, "
              f"{len(errors)} exposition error(s)")

        snapshot = json.loads(_get(base, "/snapshot"))
        if snapshot.get("schema") != "repro.obs.snapshot":
            failures.append(f"/snapshot: bad schema {snapshot.get('schema')!r}")
        if set(snapshot.get("views", {})) != set(loop.view_names):
            failures.append("/snapshot: views do not match the demo loop")
        print(f"/snapshot  rounds={snapshot.get('rounds')} "
              f"views={sorted(snapshot.get('views', {}))}")

        freshness = json.loads(_get(base, "/freshness"))
        stale = [
            name for name, view in freshness.get("views", {}).items()
            if view.get("pending", 1) != 0
        ]
        if stale:
            failures.append(f"/freshness: views still pending after "
                            f"maintenance: {stale}")
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(freshness, handle, indent=2)
            print(f"/freshness written to {out}")

        health = json.loads(_get(base, "/healthz"))
        if health.get("ok") is not True:
            failures.append(f"/healthz: {health}")
    finally:
        server.shutdown()
        server.server_close()
    return failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.smoke",
        description="Boot the live telemetry endpoint, scrape and validate it.",
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--users", type=int, default=60)
    parser.add_argument("--updates", type=int, default=12)
    parser.add_argument("--out", default=None,
                        help="write the freshness report JSON here")
    args = parser.parse_args(argv)

    failures = run_smoke(
        rounds=args.rounds,
        users=args.users,
        updates=args.updates,
        out=args.out,
    )
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print("obs smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
