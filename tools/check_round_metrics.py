"""Fail when a maintenance round's hot path looks a metric up by name.

A round records its telemetry through handles resolved once per registry
(``repro.obs.metrics.Handle``); a ``metrics.counter`` / ``gauge`` /
``histogram`` / ``loghist`` call inside the functions below would cost
every view or statement of every round an accessor call again.  The
round itself (``MaintenanceEngine._round``) keeps its one lookup.

Usage: ``python tools/check_round_metrics.py [SRC_DIR]`` (default
``src/repro``); prints each finding and exits 1 if there is one.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator

ACCESSORS = frozenset({"counter", "gauge", "histogram", "loghist"})
HOT_PATHS = frozenset({
    "execute_script",
    "populate_instances",
    "_maintain_view",
    "_run_view",
    "_run_broadcast",
    "shared_run",
    "apply_diff",
    "_finish_round",
    "update_from_report",
})


def findings(root: Path) -> Iterator[str]:
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name not in HOT_PATHS:
                continue
            for node in ast.walk(func):
                callee = node.func if isinstance(node, ast.Call) else None
                if (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in ACCESSORS
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "metrics"
                ):
                    yield (
                        f"{path}:{node.lineno}: metrics.{callee.attr}() inside "
                        f"{func.name}: hold a metrics.Handle instead"
                    )


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/repro")
    found = list(findings(root))
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
