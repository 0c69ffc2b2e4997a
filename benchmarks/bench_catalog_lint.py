"""Catalog-scale lint: cold vs warm through the incremental cache.

A production catalog holds thousands of views over a handful of base
tables; re-linting it after one view changes must not re-analyze the
other 999.  This bench lints a deterministic catalog slice
(:mod:`repro.catalog`) twice against a fresh cache directory — cold
(every view generates + analyzes) and warm (every view replays frozen
diagnostics and sharing facts) — and records both wall times, the
speedup, and the sharing-pass findings (SHARE7xx counts are exact-gated
by the perf gate; the seeded overlap groups make them a fixed function
of the catalog config).
"""

from __future__ import annotations

import tempfile
import time
from functools import lru_cache
from pathlib import Path

from conftest import write_bench_json

from repro.analysis import AnalysisCache, analyze_catalog
from repro.bench import format_table
from repro.catalog import CatalogConfig, build_catalog_database, catalog_views
from repro.cli import _lint_view_entry

#: Catalog slice for the gate: big enough that warm-vs-cold dominates
#: fixed costs (catalog construction, cache (de)serialization, the
#: sharing pass itself), small enough for the perf-gate budget.  All
#: overlap groups / duplicates / subsumed views are inside the slice,
#: so the SHARE7xx counts match the full 1,000-view catalog's seeds.
N_VIEWS = 250

#: Acceptance floor: a warm re-lint must be at least this much faster.
MIN_WARM_SPEEDUP = 10.0


def _lint_once(cache_dir: Path) -> dict:
    config = CatalogConfig(n_views=N_VIEWS)
    db = build_catalog_database(config)
    cache = AnalysisCache(cache_dir)
    started = time.perf_counter()
    facts_list = []
    n_errors = n_warnings = 0
    for label, plan in catalog_views(db, config):
        report, facts = _lint_view_entry(label, plan, db, cache)
        facts_list.append(facts)
        n_errors += len(report.errors)
        n_warnings += len(report.warnings)
    cache.flush()
    sharing = analyze_catalog(facts_list)
    elapsed = time.perf_counter() - started
    by_rule: dict[str, int] = {}
    for diag in sharing.diagnostics:
        by_rule[diag.rule_id] = by_rule.get(diag.rule_id, 0) + 1
    return {
        "views": len(facts_list),
        "errors": n_errors,
        "warnings": n_warnings,
        "sharing": by_rule,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "wall_seconds": elapsed,
    }


@lru_cache(maxsize=1)
def measurements() -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold = _lint_once(Path(tmp))
        warm = _lint_once(Path(tmp))
    return {"cold": cold, "warm": warm}


def test_catalog_lint_cache(benchmark):
    results = measurements()
    cold, warm = results["cold"], results["warm"]
    speedup = cold["wall_seconds"] / warm["wall_seconds"]

    print()
    print("== catalog lint: cold vs warm analysis cache ==")
    rows = [
        (
            run,
            data["views"],
            data["errors"],
            data["cache_hits"],
            data["cache_misses"],
            f"{data['wall_seconds']:.2f}s",
        )
        for run, data in results.items()
    ]
    rows.append(("speedup", "", "", "", "", f"{speedup:.1f}x"))
    print(
        format_table(
            ("run", "views", "errors", "hits", "misses", "wall"), rows
        )
    )

    # The catalog must lint clean, cold and warm must agree, the warm
    # run must be answered entirely from the cache, and the seeded
    # overlap must surface as priced SHARE701 opportunities.
    assert cold["errors"] == 0 and warm["errors"] == 0
    assert cold["warnings"] == warm["warnings"]
    assert cold["sharing"] == warm["sharing"]
    assert cold["cache_misses"] == cold["views"]
    assert warm["cache_hits"] == warm["views"]
    assert warm["cache_misses"] == 0
    assert cold["sharing"].get("SHARE701", 0) >= 1
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm catalog lint only {speedup:.1f}x faster than cold "
        f"(floor: {MIN_WARM_SPEEDUP}x)"
    )

    write_bench_json(
        "catalog_lint",
        {
            "n_views": N_VIEWS,
            "cold": {k: v for k, v in cold.items() if k != "wall_seconds"},
            "warm": {k: v for k, v in warm.items() if k != "wall_seconds"},
            "cold_wall": {"wall_seconds": cold["wall_seconds"]},
            "warm_wall": {"wall_seconds": warm["wall_seconds"]},
            "wall_speedup": speedup,
        },
    )

    def warm_relint():
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
            _lint_once(Path(tmp))
            _lint_once(Path(tmp))

    benchmark.pedantic(warm_relint, rounds=1, iterations=1)
