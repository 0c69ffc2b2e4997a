"""Greedy shrinking of failing crosscheck cases.

A divergence found by the fuzzer is only useful once it is small enough
to read.  :func:`shrink_case` repeatedly tries structural reductions —
drop a batch, drop one modification, drop an initial row, drop an unused
table or column, simplify the plan — and keeps a reduction only when the
case *still fails the same way*: at least one divergence with the same
``(strategy, kind)`` as the original failure.  That signature check is
what stops the shrinker from drifting onto an unrelated failure (e.g.
turning a view mismatch into a spec validation error and "minimizing"
that instead).

The passes run to a fixed point, cheapest-first; every accepted
reduction restarts the pass list so early passes get another look at the
smaller case.  All candidates are deep copies — the input case is never
mutated.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterator, Mapping, Optional

from .runner import ALL_STRATEGIES, CaseResult, run_case
from .spec import plan_tables

#: Ceiling on candidate evaluations (each runs the failing strategies
#: plus the oracle over the whole case).  Generated cases are tiny, so
#: the fixed point normally lands well under this.
MAX_TRIALS = 600


# ----------------------------------------------------------------------
# failure signatures
# ----------------------------------------------------------------------
def _signature(result: CaseResult) -> set[tuple[str, str]]:
    return {(d.strategy, d.kind) for d in result.divergences}


def _failing_strategies(result: CaseResult) -> tuple[str, ...]:
    named = {d.strategy for d in result.divergences}
    picked = tuple(s for s in ALL_STRATEGIES if s in named)
    # An oracle_error names no strategy; any single strategy will do —
    # the oracle runs (and fails) regardless of which one we pick.
    return picked or ALL_STRATEGIES[:1]


# ----------------------------------------------------------------------
# reduction passes (each yields candidate cases, smallest-step first)
# ----------------------------------------------------------------------
def _drop_batches(case: Mapping) -> Iterator[dict]:
    for i in reversed(range(len(case["batches"]))):
        candidate = copy.deepcopy(case)
        del candidate["batches"][i]
        yield candidate


def _drop_modifications(case: Mapping) -> Iterator[dict]:
    for bi in reversed(range(len(case["batches"]))):
        for mi in reversed(range(len(case["batches"][bi]))):
            candidate = copy.deepcopy(case)
            del candidate["batches"][bi][mi]
            if not candidate["batches"][bi]:
                del candidate["batches"][bi]
            yield candidate


def _shrink_updates(case: Mapping) -> Iterator[dict]:
    """Narrow multi-column updates one changed column at a time."""
    for bi, batch in enumerate(case["batches"]):
        for mi, mod in enumerate(batch):
            if mod["op"] != "update" or len(mod["changes"]) <= 1:
                continue
            for cname in mod["changes"]:
                candidate = copy.deepcopy(case)
                del candidate["batches"][bi][mi]["changes"][cname]
                yield candidate


def _drop_rows(case: Mapping) -> Iterator[dict]:
    for ti, table in enumerate(case["tables"]):
        for ri in reversed(range(len(table["rows"]))):
            candidate = copy.deepcopy(case)
            del candidate["tables"][ti]["rows"][ri]
            yield candidate


def _drop_unused_tables(case: Mapping) -> Iterator[dict]:
    """Drop every table the (possibly simplified) plan no longer reads."""
    used = plan_tables(case["plan"])
    unused = [t["name"] for t in case["tables"] if t["name"] not in used]
    if not unused:
        return
    dead = set(unused)
    candidate = copy.deepcopy(case)
    candidate["tables"] = [t for t in candidate["tables"] if t["name"] not in dead]
    candidate["foreign_keys"] = [
        fk
        for fk in candidate.get("foreign_keys", [])
        if fk[0] not in dead and fk[2] not in dead
    ]
    candidate["batches"] = [
        [mod for mod in batch if mod["table"] not in dead]
        for batch in candidate["batches"]
    ]
    candidate["batches"] = [b for b in candidate["batches"] if b]
    yield candidate


# -- plan simplification ----------------------------------------------
def _predicate_variants(pred: list) -> Iterator[list]:
    tag = pred[0]
    if tag in ("and", "or"):
        items = pred[1:]
        for i in range(len(items)):
            rest = items[:i] + items[i + 1 :]
            yield rest[0] if len(rest) == 1 else [tag] + rest
    elif tag == "not":
        yield pred[1]


def _node_variants(spec: Mapping) -> Iterator[dict]:
    """Smaller replacements for one plan node (children, weaker forms)."""
    op = spec["op"]
    if op == "select":
        yield spec["child"]
        for pred in _predicate_variants(spec["predicate"]):
            yield {**spec, "predicate": pred}
    elif op == "project":
        yield spec["child"]
    elif op == "groupby":
        yield spec["child"]
        if len(spec["aggs"]) > 1:
            for i in range(len(spec["aggs"])):
                yield {**spec, "aggs": spec["aggs"][:i] + spec["aggs"][i + 1 :]}
    elif op in ("join", "antijoin", "union"):
        yield spec["left"]
        yield spec["right"]


def _walk_plan(spec: Mapping, path: tuple = ()) -> Iterator[tuple[tuple, Mapping]]:
    yield path, spec
    for key in ("child", "left", "right"):
        child = spec.get(key)
        if isinstance(child, Mapping):
            yield from _walk_plan(child, path + (key,))


def _simplify_plan(case: Mapping) -> Iterator[dict]:
    for path, node in _walk_plan(case["plan"]):
        for variant in _node_variants(node):
            candidate = copy.deepcopy(case)
            target = candidate["plan"]
            if not path:
                candidate["plan"] = copy.deepcopy(variant)
            else:
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = copy.deepcopy(variant)
            yield candidate


# -- column dropping ---------------------------------------------------
def _collect_plan_columns(spec: Mapping, out: set[str]) -> None:
    """Every aliased column name a plan spec mentions anywhere."""

    def from_pred(pred) -> None:
        tag = pred[0]
        if tag == "col":
            out.add(pred[1])
        elif tag == "cmp":
            from_pred(pred[2])
            from_pred(pred[3])
        elif tag in ("and", "or", "not"):
            for item in pred[1:]:
                from_pred(item)
        elif tag == "in":
            from_pred(pred[1])

    op = spec["op"]
    if op == "select":
        from_pred(spec["predicate"])
    elif op in ("join", "antijoin"):
        for a, b in spec["on"]:
            out.add(a)
            out.add(b)
    elif op == "project":
        out.update(spec["columns"])
    elif op == "groupby":
        out.update(spec["keys"])
        for _func, arg, _name in spec["aggs"]:
            if arg is not None:
                out.add(arg)
    for key in ("child", "left", "right"):
        child = spec.get(key)
        if isinstance(child, Mapping):
            _collect_plan_columns(child, out)


def _scan_aliases(spec: Mapping, out: dict[str, list[str]]) -> None:
    if spec["op"] == "scan":
        out.setdefault(spec["table"], []).append(spec.get("alias") or spec["table"])
    for key in ("child", "left", "right"):
        child = spec.get(key)
        if isinstance(child, Mapping):
            _scan_aliases(child, out)


def _drop_columns(case: Mapping) -> Iterator[dict]:
    """Drop base-table columns no scan alias exposes to the plan."""
    refs: set[str] = set()
    _collect_plan_columns(case["plan"], refs)
    aliases: dict[str, list[str]] = {}
    _scan_aliases(case["plan"], aliases)
    for ti, table in enumerate(case["tables"]):
        key_cols = set(table["key"])
        for ci, cname in enumerate(table["columns"]):
            if cname in key_cols:
                continue
            exposed = any(
                f"{alias}_{cname}" in refs
                for alias in aliases.get(table["name"], [])
            )
            if exposed:
                continue
            candidate = copy.deepcopy(case)
            tspec = candidate["tables"][ti]
            del tspec["columns"][ci]
            tspec["rows"] = [row[:ci] + row[ci + 1 :] for row in tspec["rows"]]
            candidate["foreign_keys"] = [
                fk
                for fk in candidate.get("foreign_keys", [])
                if not (fk[0] == table["name"] and cname in fk[1])
            ]
            for batch in candidate["batches"]:
                for mod in batch:
                    if mod["table"] != table["name"]:
                        continue
                    if mod["op"] == "insert":
                        mod["row"] = mod["row"][:ci] + mod["row"][ci + 1 :]
                    elif mod["op"] == "update":
                        mod["changes"].pop(cname, None)
                # Updates left with no changes are no-ops; fold them away
                # *before* the predicate sees the candidate, so acceptance
                # is judged on exactly what the shrinker would keep.
                batch[:] = [
                    mod
                    for mod in batch
                    if not (mod["op"] == "update" and not mod["changes"])
                ]
            candidate["batches"] = [b for b in candidate["batches"] if b]
            yield candidate


#: Pass order: coarse, high-yield reductions first; column surgery last.
_PASSES: tuple[Callable[[Mapping], Iterator[dict]], ...] = (
    _drop_batches,
    _drop_modifications,
    _simplify_plan,
    _drop_rows,
    _drop_unused_tables,
    _shrink_updates,
    _drop_columns,
)


# ----------------------------------------------------------------------
def shrink_case(
    case: Mapping,
    result: Optional[CaseResult] = None,
    *,
    predicate: Optional[Callable[[Mapping], bool]] = None,
) -> dict:
    """Minimize a failing case while it keeps failing the same way.

    *result* is the case's known :class:`CaseResult` (recomputed when
    omitted).  *predicate* overrides the whole still-fails check — useful
    for tests and for shrinking against a property other than a live
    divergence.  Returns a new case dict; the input is not modified.
    A case that does not fail (and no predicate is given) is returned
    unchanged.
    """
    trials = 0
    if predicate is None:
        if result is None:
            result = run_case(case)
        if result.ok:
            return copy.deepcopy(case)
        reference = _signature(result)
        strategies = _failing_strategies(result)

        def predicate(candidate: Mapping) -> bool:
            res = run_case(candidate, strategies)
            return bool(_signature(res) & reference)

    current = copy.deepcopy(case)
    progress = True
    while progress and trials < MAX_TRIALS:
        progress = False
        for reduce_pass in _PASSES:
            for candidate in reduce_pass(current):
                if trials >= MAX_TRIALS:
                    break
                trials += 1
                try:
                    keep = predicate(candidate)
                except Exception:  # noqa: BLE001 - a candidate may be invalid
                    keep = False
                if keep:
                    current = candidate
                    progress = True
                    break
            if progress:
                break
    return current
