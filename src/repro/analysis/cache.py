"""Incremental, content-addressed analysis cache (``.repro-cache/``).

Re-linting a thousand-view catalog should re-analyze only what changed.
This module persists frozen :class:`AnalysisReport` diagnostics — plus
the sharing-pass facts needed by catalog lint — keyed by an **exact**
fingerprint of everything the per-view passes can observe:

* the plan in exact (syntactic) mode, base schemas and FKs folded in,
* a digest of the database's per-table row counts (the cost pass reads
  cardinality statistics),
* the shard count and generator knobs,
* :data:`~repro.analysis.fingerprint.FINGERPRINT_VERSION`.

Pass versions are *not* part of the key; they live in the file header,
so bumping any pass's ``version=`` in ``@register_pass`` gracefully
invalidates the whole persisted cache at load time.  A truncated or
garbage cache file is treated as empty — corruption can cost a cold
re-analysis, never a wrong report.

``repro lint`` is the one user: it defaults to ``.repro-cache/`` with
``--no-cache`` as the escape hatch.  The strict engine gate
(:func:`repro.analysis.check_generated`) always re-runs the passes.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from ..storage.database import Database
from .diagnostics import AnalysisReport, Diagnostic
from .fingerprint import (
    FINGERPRINT_VERSION,
    digest,
    plan_fingerprint,
)
from .registry import pass_versions

CACHE_SCHEMA_VERSION = 2
DEFAULT_CACHE_DIR = ".repro-cache"
_CACHE_FILE = "analysis.json"


def db_stats_digest(db: Optional[Database]) -> str:
    """Digest of the statistics the cost pass can observe."""
    if db is None:
        return "nodb"
    rows = sorted([name, len(table)] for name, table in db.tables.items())
    return digest(["stats", rows])


def plan_cache_key(
    plan: object,
    db: Optional[Database],
    n_shards: int = 2,
    knobs: tuple = (),
) -> str:
    """Cache key for the full per-view analysis of a plan.

    *knobs* captures generator configuration (cache policy, optimize,
    cost-based selection, …) — anything that changes which ∆-script the
    plan compiles to must be in the key.
    """
    return digest(
        [
            "plan-key",
            FINGERPRINT_VERSION,
            plan_fingerprint(plan, db, alpha=False),  # type: ignore[arg-type]
            db_stats_digest(db),
            n_shards,
            list(knobs),
        ]
    )


def entry_from_report(report: AnalysisReport, extra: Optional[dict] = None) -> dict:
    entry: dict = {
        "diagnostics": [
            [d.rule_id, d.severity, d.location, d.message, d.hint]
            for d in report.diagnostics
        ]
    }
    if extra:
        entry.update(extra)
    return entry


def report_from_entry(entry: dict) -> AnalysisReport:
    report = AnalysisReport()
    for rule_id, severity, location, message, hint in entry["diagnostics"]:
        report.diagnostics.append(
            Diagnostic(rule_id, severity, location, message, hint)
        )
    return report


class AnalysisCache:
    """One JSON file of ``key -> frozen analysis entry`` with a versioned
    header.  Load is lazy; writes are atomic (temp file + rename)."""

    def __init__(self, root: "str | Path" = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.path = self.root / _CACHE_FILE
        self._entries: Optional[dict[str, dict]] = None
        self._dirty = False
        self.hits = 0
        self.misses = 0

    def _header(self) -> dict:
        return {
            "schema": "repro.analysis-cache",
            "version": CACHE_SCHEMA_VERSION,
            "fingerprint_version": FINGERPRINT_VERSION,
            "pass_versions": pass_versions(),
        }

    def _load(self) -> dict[str, dict]:
        if self._entries is not None:
            return self._entries
        entries: dict[str, dict] = {}
        try:
            with open(self.path, encoding="utf-8") as fh:
                payload = json.load(fh)
            header = {k: payload.get(k) for k in self._header()}
            if header == self._header() and isinstance(
                payload.get("entries"), dict
            ):
                entries = payload["entries"]
        except (OSError, ValueError):
            # Missing, truncated or garbage file: start cold.  Any
            # stale content is overwritten on the next flush().
            entries = {}
        self._entries = entries
        return entries

    def get(self, key: str) -> Optional[dict]:
        entry = self._load().get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: str, entry: dict) -> None:
        self._load()[key] = entry
        self._dirty = True

    def flush(self) -> None:
        if not self._dirty or self._entries is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = dict(self._header())
        payload["entries"] = self._entries
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._dirty = False

