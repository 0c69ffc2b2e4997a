"""Incremental, content-addressed analysis cache.

Re-linting a thousand-view catalog should re-analyze only what changed.
This module persists frozen :class:`AnalysisReport` diagnostics — plus
the sharing-pass facts needed by catalog lint — keyed by an **exact**
fingerprint of everything the per-view passes can observe:

* the plan in exact (syntactic) mode, base schemas and FKs folded in,
* a digest of the database's per-table row counts (the cost pass reads
  cardinality statistics),
* the view's label.

What the passes *do* with those inputs is code, so the code is not in
the key but in the file header: a digest of every ``*.py`` file of the
``repro`` package.  A file written by other code — any edit to a pass,
the generator, the rules or the fingerprints — replays nothing.  A
truncated or garbage cache file is treated as empty — corruption can
cost a cold re-analysis, never a wrong report.

``repro lint --cache-dir DIR`` is the one user; without the flag it
caches nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Optional

from ..storage.database import Database
from .diagnostics import AnalysisReport, Diagnostic
from .fingerprint import digest, plan_fingerprint

_SCHEMA = "repro.analysis-cache"
_CACHE_FILE = "analysis.json"


@lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 over the sorted (relative path, bytes) of every ``*.py``
    file in the ``repro`` package directory: the code that reads and
    writes a cache file.  Computed once per process."""
    root = Path(__file__).resolve().parent.parent
    sha = hashlib.sha256()
    for rel, path in sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    ):
        data = path.read_bytes()
        sha.update(f"{rel}\0{len(data)}\0".encode())
        sha.update(data)
    return sha.hexdigest()


def db_stats_digest(db: Optional[Database]) -> str:
    """Digest of the statistics the cost pass can observe."""
    if db is None:
        return "nodb"
    rows = sorted([name, len(table)] for name, table in db.tables.items())
    return digest(["stats", rows])


def plan_cache_key(plan: object, db: Optional[Database], label: str) -> str:
    """Cache key for the full per-view analysis of the view *label*."""
    return digest(
        [
            "plan-key",
            plan_fingerprint(plan, db, alpha=False),  # type: ignore[arg-type]
            db_stats_digest(db),
            label,
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
    """One JSON file of ``key -> frozen analysis entry`` under a header
    naming the code that wrote it.  Load is lazy; writes are atomic
    (temp file + rename)."""

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.path = self.root / _CACHE_FILE
        self.header = {"schema": _SCHEMA, "code": code_digest()}
        self._entries: Optional[dict[str, dict]] = None
        self._dirty = False
        self.hits = 0
        self.misses = 0

    def _load(self) -> dict[str, dict]:
        if self._entries is not None:
            return self._entries
        entries: dict[str, dict] = {}
        try:
            with open(self.path, encoding="utf-8") as fh:
                payload = json.load(fh)
            header = {k: payload.get(k) for k in self.header}
            if header == self.header and isinstance(payload.get("entries"), dict):
                entries = payload["entries"]
        except (OSError, ValueError, AttributeError):
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
        payload = dict(self.header)
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

