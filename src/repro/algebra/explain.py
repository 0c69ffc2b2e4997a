"""Human-readable plan rendering (EXPLAIN / EXPLAIN ANALYZE style)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .plan import PlanNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..storage import Database


def explain_plan(root: PlanNode) -> str:
    """Indented operator-tree rendering of *root*.

    When Pass 1 has run (``node_id >= 0``), node identifiers and inferred
    ID attributes are included — the annotations of the paper's Figure 5a.
    """
    lines: list[str] = []

    def visit(node: PlanNode, depth: int) -> None:
        pad = "  " * depth
        suffix = ""
        if node.node_id >= 0:
            ids = ",".join(node.ids)
            suffix = f"   [n{node.node_id}  ids: {ids}]"
        lines.append(f"{pad}{node.label()}{suffix}")
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def explain_analyze(root: PlanNode, db: "Database") -> str:
    """EXPLAIN ANALYZE: execute the plan and annotate each operator with
    its *actual* output row count and (cumulative) access costs.

    The plan is evaluated once under a private span recorder; each
    operator span contributes ``rows`` plus the lookups/reads/writes it
    (and its subtree) incurred — the same per-operator attribution the
    maintenance-time traces carry.
    """
    from ..obs import spans as obs
    from .evaluate import evaluate_plan

    recorder = obs.SpanRecorder()
    with obs.recording(recorder):
        evaluate_plan(root, db)
    stats: dict[int, tuple[int, object]] = {}
    for sp in recorder.find(kind="plan_op"):
        node_id = sp.attrs.get("node_id")
        if node_id is not None and node_id not in stats:
            stats[node_id] = (sp.attrs.get("rows_out", 0), sp.counts)
    lines: list[str] = []

    def visit(node: PlanNode, depth: int) -> None:
        pad = "  " * depth
        suffix = ""
        if node.node_id >= 0:
            ids = ",".join(node.ids)
            suffix = f"   [n{node.node_id}  ids: {ids}]"
        actual = stats.get(node.node_id)
        if actual is not None:
            rows, counts = actual
            detail = f"rows={rows}"
            if counts is not None:
                detail += (
                    f" lookups={counts.index_lookups} reads={counts.tuple_reads}"
                    f" writes={counts.tuple_writes} cost={counts.total}"
                )
            suffix += f"   (actual {detail})"
        lines.append(f"{pad}{node.label()}{suffix}")
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
