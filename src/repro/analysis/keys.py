"""Pass 2: key/FD inference audit (rules KEY2xx).

:mod:`repro.core.idinfer` implements the paper's Table 1 by structural
recursion; this pass re-derives each subview's key obligations through
an *independent* mechanism — functional-dependency closure — and
cross-checks the claims:

* KEY202 — a node's claimed ``ids`` must be output columns (Pass 1's
  projection extension guarantees this; a violation means the extension
  or a rule is broken).
* KEY201 — the claimed ``ids`` must be a provable superkey of the
  subview: FD closure over base-table keys, equi-join equivalences, and
  projection computations must cover every output column.  Bag union is
  checked structurally (each branch must be keyed by the non-branch
  ids, with the branch column separating branches).

A flagged node is *assumed* correct afterwards (its claim becomes an FD)
so one wrong claim does not cascade into noise above it.
"""

from __future__ import annotations

from typing import Iterable

from ..algebra.plan import (
    AntiJoin,
    GroupBy,
    Join,
    PlanNode,
    Project,
    Scan,
    SemiJoin,
    Select,
    UnionAll,
)
from ..expr import Col, columns_of, equi_join_pairs
from .diagnostics import AnalysisReport
from .registry import AnalysisContext

FD = tuple[frozenset, frozenset]  # lhs -> rhs


def closure(attrs: Iterable[str], fds: list[FD]) -> frozenset:
    """Attribute closure of *attrs* under *fds* (textbook fixpoint)."""
    out = set(attrs)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if lhs <= out and not rhs <= out:
                out |= rhs
                changed = True
    return frozenset(out)


def _fd(lhs: Iterable[str], rhs: Iterable[str]) -> FD:
    return (frozenset(lhs), frozenset(rhs))


def _audit_node(node: PlanNode, report: AnalysisReport) -> list[FD]:
    """Verify *node*'s claimed ids; return FDs valid over its output."""
    where = f"plan n{node.node_id} [{node.label()}]"
    columns = set(node.columns)
    ids = set(node.ids)
    missing = ids - columns
    if missing:
        report.add(
            "KEY202",
            where,
            f"claimed ID attributes {sorted(missing)} are not output "
            f"columns {sorted(columns)}",
            hint="Pass 1 must extend projections with every inferred ID",
        )
        ids &= columns

    fds, ok = _derive(node, ids, report, where)
    if not ok:
        pass  # _derive reported; fall through to the assumed claim
    elif not columns <= closure(ids, fds):
        uncovered = sorted(columns - closure(ids, fds))
        report.add(
            "KEY201",
            where,
            f"claimed IDs {sorted(ids)} do not functionally determine "
            f"{uncovered}: the i-diffs addressed through them can hit "
            f"multiple distinct view rows",
            hint="re-check the Table 1 rule for this operator",
        )
    # Assume the claim upward (verified, or flagged once already).
    fds.append(_fd(ids, columns))
    return fds


def _derive(
    node: PlanNode, ids: set, report: AnalysisReport, where: str
) -> tuple[list[FD], bool]:
    """FDs over *node*'s output columns, derived independently of
    ``node.ids``.  The bool is False when a structural obligation already
    failed (reported here; skip the generic closure check)."""
    if isinstance(node, Scan):
        return [_fd(node.schema.key, node.schema.columns)], True
    if isinstance(node, Select):
        return _audit_node(node.child, report), True
    if isinstance(node, Project):
        return _project_fds(node, report), True
    if isinstance(node, Join):
        fds = _audit_node(node.left, report) + _audit_node(node.right, report)
        if node.condition is not None:
            pairs, _ = equi_join_pairs(
                node.condition, node.left.columns, node.right.columns
            )
            for lcol, rcol in pairs:
                fds.append(_fd((lcol,), (rcol,)))
                fds.append(_fd((rcol,), (lcol,)))
        return fds, True
    if isinstance(node, (AntiJoin, SemiJoin)):
        # Right side never reaches the output; audit it for its own sake.
        _audit_node(node.right, report)
        return _audit_node(node.left, report), True
    if isinstance(node, UnionAll):
        return _union_fds(node, ids, report, where)
    if isinstance(node, GroupBy):
        child_fds = _audit_node(node.child, report)
        # One output row per group: the keys are a key by construction.
        fds = [_fd(node.keys, node.columns)]
        keys = set(node.keys)
        fds.extend(fd for fd in child_fds if fd[0] <= keys and fd[1] <= keys)
        return fds, True
    return [], True


def _project_fds(node: Project, report: AnalysisReport) -> list[FD]:
    """FDs of a projection, computed in an extended attribute space.

    The space holds the child's columns plus the output names; renames
    contribute equivalences, computed items contribute ``refs -> name``.
    The caller's closure then runs over child-space FDs transparently,
    so an FD whose attributes were projected away still participates.
    """
    fds = list(_audit_node(node.child, report))
    child_columns = set(node.child.columns)
    for name, expr in node.items:
        if isinstance(expr, Col):
            if name != expr.name:
                fds.append(_fd((expr.name,), (name,)))
                fds.append(_fd((name,), (expr.name,)))
            continue
        refs = columns_of(expr) & child_columns
        fds.append(_fd(refs, (name,)))
    return fds


def _union_fds(
    node: UnionAll, ids: set, report: AnalysisReport, where: str
) -> tuple[list[FD], bool]:
    """Structural key check for bag union (FDs do not survive ∪ in
    general): each branch must be keyed by the claimed ids minus the
    branch column, which separates the branches."""
    ok = True
    branch_ids = ids - {node.branch_column}
    if node.branch_column not in ids:
        report.add(
            "KEY201",
            where,
            f"union IDs {sorted(ids)} omit the branch column "
            f"{node.branch_column!r}: left- and right-branch rows with "
            f"equal ids collide",
            hint="Table 1: ID(R ∪ S) = ID(R) ∪ ID(S) ∪ {b}",
        )
        ok = False
    for side, child in (("left", node.left), ("right", node.right)):
        child_fds = _audit_node(child, report)
        child_cols = set(child.columns)
        if not child_cols <= closure(branch_ids & child_cols, child_fds):
            report.add(
                "KEY201",
                where,
                f"union ids {sorted(branch_ids)} are not a key of the "
                f"{side} branch",
            )
            ok = False
    return [_fd(ids, node.columns)], ok


def keys_pass(ctx: AnalysisContext) -> None:
    """Audit the whole plan from the root (children audited recursively)."""
    audit_plan_keys(ctx.plan, ctx.report)


def audit_plan_keys(plan: PlanNode, report: AnalysisReport) -> list[FD]:
    """Entry point shared with tests; returns the root's output FDs."""
    return _audit_node(plan, report)
