"""Rendering of benchmark results: paper-shaped plain text tables plus
JSON-serializable dict forms carrying full per-phase access breakdowns
(the machine-readable side of the perf trajectory, ``BENCH_*.json``)."""

from __future__ import annotations

from typing import Iterable, Sequence

from .harness import SweepPoint, SystemResult


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Monospace table with per-column widths."""
    rendered = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rendered
    ]
    return "\n".join([line, rule] + body)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_sweep(
    title: str,
    parameter_name: str,
    points: Sequence[SweepPoint],
    systems: Sequence[str],
    phases: Sequence[str] = (),
) -> str:
    """A Figure 12 style sweep table: one row per parameter value, one
    column block per system (total cost + optional phase breakdown),
    ending with the ID-over-tuple speedup."""
    headers = [parameter_name]
    for system in systems:
        headers.append(f"{system} cost")
        headers.extend(f"{system} {p}" for p in phases)
    headers.append("speedup")
    rows = []
    for point in points:
        row: list[object] = [point.parameter]
        for system in systems:
            result = point.results[system]
            row.append(result.total_cost)
            row.extend(result.phase(p) for p in phases)
        row.append(point.speedup())
        rows.append(row)
    return f"== {title} ==\n" + format_table(headers, rows)


def format_comparison(title: str, results: dict[str, SystemResult]) -> str:
    """One row per system: cost, phase split, wall time, correctness."""
    phases = sorted({p for r in results.values() for p in r.phase_costs})
    headers = ["system", "cost", *phases, "lookups", "reads", "writes", "wall(s)", "ok"]
    rows = []
    for label, result in results.items():
        rows.append(
            [
                label,
                result.total_cost,
                *[result.phase(p) for p in phases],
                result.lookups,
                result.reads,
                result.writes,
                result.wall_seconds,
                "yes" if result.correct else "NO",
            ]
        )
    return f"== {title} ==\n" + format_table(headers, rows)


def format_figure10(rows: Sequence[tuple[str, float, float, float]]) -> str:
    """The Figure 10 shape: per-query speedup plus both IVM times."""
    headers = ["query", "ID-IVM cost", "Tuple-IVM cost", "speedup"]
    return format_table(headers, rows)


# ----------------------------------------------------------------------
# machine-readable forms (BENCH_*.json, trace attachments)
# ----------------------------------------------------------------------
def system_result_to_dict(result: SystemResult) -> dict:
    """JSON-serializable form of one system's round, with the *full*
    per-phase access breakdown (lookups/reads/writes per phase), not
    just the phase totals."""
    return {
        "label": result.label,
        "total_cost": result.total_cost,
        "wall_seconds": result.wall_seconds,
        "correct": result.correct,
        "accesses": {
            "index_lookups": result.lookups,
            "tuple_reads": result.reads,
            "tuple_writes": result.writes,
        },
        "phases": {
            name: counts.as_dict()
            for name, counts in sorted(result.phase_accesses.items())
        },
        "trace": result.trace,
    }


def sweep_point_to_dict(point: SweepPoint) -> dict:
    """JSON-serializable form of one sweep x-axis point."""
    out: dict = {
        "parameter": point.parameter,
        "systems": {
            label: system_result_to_dict(result)
            for label, result in point.results.items()
        },
    }
    if "tuple" in point.results and "idIVM" in point.results:
        out["speedup"] = point.speedup()
    return out
