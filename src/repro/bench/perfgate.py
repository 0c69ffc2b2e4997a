"""CI perf-regression gate over the ``BENCH_*.json`` envelopes.

The benchmarks serialize the paper's cost metric — per-phase access
counts — which is **deterministic** for a fixed configuration: the same
∆-script over the same data performs the same lookups, reads and
writes on every machine.  So the gate can hold those to *exact*
equality against a committed baseline (``benchmarks/baselines/``): any
drift is a real plan/executor change, intended or not.  Wall-clock
fields are machine-dependent noise: they must be present, and their
values are never compared (timing evidence is ``make bench-compare``).

Wired in :mod:`benchmarks.conftest`: when ``REPRO_PERF_GATE`` is set,
``write_bench_json`` compares the fresh payload against the baseline
and fails the benchmark on any violation (``make perf-gate``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

#: Keys whose values depend on the machine a payload was produced on —
#: wall clocks, ratios derived from them, the CPU count.  Held to be
#: present on both sides, never compared.
_MACHINE_KEYS = frozenset({"wall_seconds", "effective_cpus", "wall_speedup"})

#: Top-level envelope keys that are volatile by construction — run
#: provenance (git SHA, timestamp) and the final metrics-registry
#: snapshot (whose wall-clock histograms and incidental counters change
#: shape run to run).  Skipped in both directions; the deterministic
#: telemetry a benchmark wants gated belongs in its ``data`` payload.
_ENVELOPE_VOLATILE = frozenset({"provenance", "metrics"})

#: Wall-clock histogram dict fields held exactly: the observation
#: *count* is a workload fact (rounds run, entries applied), not a
#: timing.  Every other field (sums, percentiles, buckets) moves with
#: the machine and is not compared.
_WALL_HIST_EXACT_KEYS = ("type", "unit", "count")


def _is_wall_hist(value: object) -> bool:
    """A serialized LogHistogram whose unit marks it machine-dependent."""
    return (
        isinstance(value, dict)
        and value.get("type") == "loghist"
        and value.get("unit") == "seconds"
    )


def _gate_wall_hist(baseline: dict, fresh: dict, path: str) -> list[str]:
    return [
        f"{path}.{key}: {baseline.get(key)!r} -> {fresh.get(key)!r}"
        for key in _WALL_HIST_EXACT_KEYS
        if baseline.get(key) != fresh.get(key)
    ]


def compare_payloads(baseline: object, fresh: object, _path: str = "$") -> list[str]:
    """Diff a fresh benchmark payload against its baseline.

    Returns a list of human-readable violations (empty = gate passes).
    Numbers compare exactly except under a machine-dependent key; shape
    mismatches (missing/extra keys, list lengths, type changes) are
    violations too — a benchmark that silently stops reporting a metric
    must not pass the gate.
    """
    violations: list[str] = []
    if _is_wall_hist(baseline) and _is_wall_hist(fresh):
        return _gate_wall_hist(baseline, fresh, _path)
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        for key in sorted(baseline.keys() | fresh.keys()):
            here = f"{_path}.{key}"
            if _path == "$" and key in _ENVELOPE_VOLATILE:
                continue
            if key not in fresh:
                violations.append(f"{here}: missing from fresh payload")
            elif key not in baseline:
                violations.append(f"{here}: not in baseline (refresh baselines?)")
            elif key not in _MACHINE_KEYS:
                violations.extend(compare_payloads(baseline[key], fresh[key], here))
    elif isinstance(baseline, list) and isinstance(fresh, list):
        if len(baseline) != len(fresh):
            violations.append(
                f"{_path}: length {len(baseline)} -> {len(fresh)}"
            )
        for i, (b, f) in enumerate(zip(baseline, fresh)):
            violations.extend(compare_payloads(b, f, f"{_path}[{i}]"))
    elif isinstance(baseline, bool) or isinstance(fresh, bool) or not (
        isinstance(baseline, (int, float)) and isinstance(fresh, (int, float))
    ):
        if baseline != fresh:
            violations.append(f"{_path}: {baseline!r} -> {fresh!r}")
    elif baseline != fresh:
        violations.append(
            f"{_path}: access/count metric changed {baseline} -> {fresh}"
        )
    return violations


def baseline_path(name: str, baselines_dir: Path) -> Path:
    return baselines_dir / f"BENCH_{name}.json"


def load_baseline(name: str, baselines_dir: Path) -> Optional[dict]:
    path = baseline_path(name, baselines_dir)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def run_gate(name: str, fresh_payload: dict, baselines_dir: Path) -> list[str]:
    """Gate one benchmark's fresh payload; list of violations.

    A missing baseline is itself a violation: every benchmark in the
    gated set must have a committed reference, otherwise the gate would
    silently wave new benchmarks through.
    """
    baseline = load_baseline(name, baselines_dir)
    if baseline is None:
        return [
            f"no committed baseline {baseline_path(name, baselines_dir)}; "
            "copy the fresh BENCH json there to (re)baseline"
        ]
    return compare_payloads(baseline, fresh_payload)
