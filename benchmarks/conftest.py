"""Shared machinery for the paper-reproduction benchmarks.

Each ``bench_*`` module regenerates one of the paper's tables/figures:
it computes the full access-count sweep once (cached per session),
prints the paper-style table, asserts the qualitative findings hold, and
measures wall time with pytest-benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable, Sequence

import pytest

from repro.baselines import SdbtEngine, TupleIvmEngine
from repro.bench import (
    SweepPoint,
    SystemResult,
    run_gate,
    run_system,
    sweep_point_to_dict,
    system_result_to_dict,
)
from repro.core import IdIvmEngine
from repro.storage import AccessCounts
from repro.workloads import (
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_devices_database,
)

#: Figure 12 experiments: scaled-down defaults preserving the paper's
#: ratios (parts : devices : devices_parts = 1 : 1 : 10, d=200, s=20%,
#: f=10, j=2 — Figure 11b).
BASE_CONFIG = dict(n_parts=1_000, n_devices=1_000, diff_size=200)

SYSTEMS: dict[str, Callable] = {
    "idIVM": IdIvmEngine,
    "tuple": TupleIvmEngine,
    "SDBT-fixed": lambda db: SdbtEngine(db, streamed_tables=["parts"]),
    "SDBT-streams": SdbtEngine,
}


#: Schema version of the ``BENCH_<name>.json`` envelope.
BENCH_SCHEMA_VERSION = 1

#: The repo root, where the ``BENCH_*.json`` files live.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Committed reference payloads for the perf-regression gate
#: (``make perf-gate`` / the CI perf-gate job).
BASELINES_DIR = Path(__file__).resolve().parent / "baselines"


def _jsonable(obj: object) -> object:
    if isinstance(obj, SystemResult):
        return system_result_to_dict(obj)
    if isinstance(obj, SweepPoint):
        return sweep_point_to_dict(obj)
    if isinstance(obj, AccessCounts):
        return obj.as_dict()
    raise TypeError(f"{type(obj).__name__} is not JSON-serializable")


def _provenance() -> dict:
    """Where this payload came from: commit, wall time, interpreter.

    Benchmark jsons travel (CI artifacts, perf triage); a payload that
    cannot say which commit produced it is unusable a week later.  The
    perf gate skips this block — it is volatile by construction.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:  # noqa: BLE001 - no git, shallow checkout, ...
        sha = "unknown"
    return {
        "git_sha": sha,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def write_bench_json(name: str, data: object) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root.

    ``data`` may contain :class:`SystemResult`, :class:`SweepPoint` and
    :class:`AccessCounts` values anywhere — they are serialized through
    :func:`repro.bench.system_result_to_dict` and friends, so every file
    carries the full per-phase access breakdown.  Benchmarks call this
    after their assertions pass, so a file on disk is also a record that
    the paper's qualitative finding held for that run.

    Every envelope also carries a ``provenance`` block and a ``metrics``
    snapshot of the process-wide registry at write time (round-latency
    and fold-size histograms, cache hit counters, ...) — both excluded
    from the perf gate's exact comparison.
    """
    from repro.obs import metrics

    payload = {
        "schema": "repro.bench",
        "version": BENCH_SCHEMA_VERSION,
        "name": name,
        "provenance": _provenance(),
        "metrics": metrics.registry().as_dict(),
        "data": data,
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    # sort_keys: byte-identical output for identical runs (diffable in CI).
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    path.write_text(text + "\n")
    if os.environ.get("REPRO_PERF_GATE"):
        # Perf-regression gate: access-count metrics must match the
        # committed baseline exactly (they are deterministic); wall
        # times are not compared.
        violations = run_gate(name, json.loads(text), BASELINES_DIR)
        if violations:
            pytest.fail(
                f"perf gate: BENCH_{name}.json regressed vs "
                f"benchmarks/baselines/ ({len(violations)} violation(s)):\n"
                + "\n".join(f"  - {v}" for v in violations),
                pytrace=False,
            )
    return path


def run_devices_point(
    config: DevicesConfig,
    systems: Sequence[str] = ("idIVM", "tuple", "SDBT-fixed", "SDBT-streams"),
) -> SweepPoint:
    """One Figure 12 measurement: the aggregate view V' under d price
    updates, for every requested system."""
    results: dict[str, SystemResult] = {}
    for label in systems:
        results[label] = run_system(
            label,
            db_factory=lambda: build_devices_database(config),
            make_engine=SYSTEMS[label],
            build_view=lambda db: build_aggregate_view(db, config),
            log_modifications=lambda engine, db: apply_price_updates(
                engine, db, config
            ),
        )
        assert results[label].correct, f"{label} produced a wrong view"
    return SweepPoint(parameter=None, results=results)


def timing_subject(config: DevicesConfig, engine_factory: Callable):
    """Setup/target pair for benchmark.pedantic: a fresh engine + logged
    batch per round, timing only the maintenance call."""

    def setup():
        db = build_devices_database(config)
        engine = engine_factory(db)
        engine.define_view("V", build_aggregate_view(db, config))
        apply_price_updates(engine, db, config)
        return (engine,), {}

    def target(engine):
        engine.maintain()

    return setup, target


#: Smaller configuration for the wall-clock measurements so that
#: pytest-benchmark's repeated rounds stay quick.
TIMING_CONFIG = DevicesConfig(n_parts=300, n_devices=300, diff_size=60)


@pytest.fixture(scope="session")
def timing_config() -> DevicesConfig:
    return TIMING_CONFIG
