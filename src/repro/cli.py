"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the paper's running example end to end (Figures 1–7).
``explain --sql "SELECT ..." [--analyze] [--compiled]``
    Parse a view over the demo devices schema, print the annotated plan
    (Pass 1's Figure 5a shape) and the generated ∆-script (Figure 7).
    With ``--analyze``, also execute the plan and print per-operator
    actual row counts and access costs; with ``--compiled``, the Python
    source generated for every compute step and γ accumulation loop.
``sweep --param {d,s,f,j} --values 100,200,...``
    Run a Figure 12 style sweep of the devices workload for the chosen
    parameter and print the paper-style table.
``bsma [--updates N]``
    Run the Figure 10 social-analytics comparison.
``crosscheck --seed N --cases K``
    Run the differential fuzzer: every maintenance strategy against the
    recompute oracle over K generated cases (see ``docs/CROSSCHECK.md``).
    Divergent cases are shrunk and saved as replayable reproducers;
    exits non-zero if any case diverged.
``lint [--json]``
    Run the static analyzer (see ``docs/ANALYSIS.md``) over every
    shipped workload view — devices flat + aggregate and all eight BSMA
    queries — and print the diagnostics.  Exits non-zero if any view
    carries error-severity diagnostics.  With ``--cost``, also run
    several live seeded rounds per view, reconcile measured access
    counts against the symbolic prediction (COST503) and report
    sustained predicted-vs-observed drift (COST504, informational).
``top``
    Live terminal dashboard: per-view staleness, observed-lag and
    round-latency percentiles, drift EWMAs.  Runs a local BSMA demo
    loop, or polls a running ``python -m repro.obs.serve`` with
    ``--url`` (see ``docs/OBSERVABILITY.md``).

``demo``, ``sweep``, ``bsma`` and ``crosscheck`` accept ``--trace
FILE.jsonl`` to record every maintenance round as a span tree (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .algebra.explain import explain_analyze, explain_plan
from .algebra.plan import base_tables
from .obs import metrics, recording, write_trace
from .obs import spans as obs
from .baselines import TupleIvmEngine
from .bench import SweepPoint, SystemResult, format_figure10, format_sweep, run_system
from .core import IdIvmEngine
from .core.compile import readers_of
from .core.engine import HostedView
from .sql import sql_to_plan
from .storage import Database
from .workloads import (
    BSMA_QUERIES,
    BsmaConfig,
    DevicesConfig,
    apply_price_updates,
    build_aggregate_view,
    build_bsma_database,
    build_devices_database,
    log_user_updates,
)


def demo_database() -> Database:
    """The Figure 1 instance, used by ``demo`` and ``explain``."""
    db = Database()
    db.create_table(
        "devices",
        ("did", "category"),
        ("did",),
        nullable=(),
        types={"did": "str", "category": "str"},
    )
    db.create_table(
        "parts",
        ("pid", "price"),
        ("pid",),
        nullable=(),
        types={"pid": "str", "price": "int"},
    )
    db.create_table(
        "devices_parts",
        ("did", "pid"),
        ("did", "pid"),
        nullable=(),
        types={"did": "str", "pid": "str"},
    )
    db.table("devices").load([("D1", "phone"), ("D2", "phone"), ("D3", "tablet")])
    db.table("parts").load([("P1", 10), ("P2", 20)])
    db.table("devices_parts").load([("D1", "P1"), ("D2", "P1"), ("D1", "P2")])
    return db


def cmd_demo(args: argparse.Namespace) -> int:
    """``repro demo``: the running example end to end."""
    db = demo_database()
    engine = IdIvmEngine(db)
    view = engine.define_view(
        "V_prime",
        sql_to_plan(
            db,
            "SELECT did, SUM(price) AS cost FROM parts NATURAL JOIN "
            "devices_parts NATURAL JOIN devices WHERE category = 'phone' "
            "GROUP BY did",
        ),
    )
    print("Initial view:", sorted(view.table.as_set()))
    print()
    print(explain_plan(view.plan))
    print()
    print(view.describe_script())
    print()
    engine.log.update("parts", ("P1",), {"price": 11})
    report = engine.maintain()["V_prime"]
    print("After the Figure 2 update (P1: 10 -> 11):", sorted(view.table.as_set()))
    print(f"maintenance cost: {report.total_cost} accesses")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: annotated plan + ∆-script for a SQL view."""
    db = demo_database()
    engine = IdIvmEngine(db, optimize=not args.no_minimize)
    engine.define_view("V", sql_to_plan(db, args.sql))
    names = [f"V{i}" for i, _ in enumerate(args.also or (), start=2)]
    for name, sql in zip(names, args.also or ()):
        engine.define_view(name, sql_to_plan(db, sql))
    # read after every definition: a view defined later may host V
    view = engine.views["V"]
    print("-- annotated plan (Pass 1) " + "-" * 34)
    print(explain_plan(view.plan))
    print()
    if isinstance(view, HostedView):
        print(f"-- V is a projection of {view.host.name}'s cache {view.table.source.name}: "
              f"{view.host.name}'s round maintains it, it has no ∆-script of its own")
        return 0
    print("-- generated ∆-script " + "-" * 39)
    print(view.describe_script())
    script = view.script
    if args.compiled:
        print()
        print("-- generated code: per compute step, γ node and subview read " + "-" * 3)
        passes = (getattr(step, "group_pass", None) for step in script.steps)
        readers = readers_of(script).built.values()
        for fn in (*script._kernels.values(), *passes, *readers):
            if fn is not None:
                print(f"# {fn.__code__.co_filename}")
                print(fn.__source__)
    for other in map(engine.views.__getitem__, names):
        if isinstance(other, HostedView):
            print(f"-- {other.name} is a projection of {other.host.name}'s cache "
                  f"{other.table.source.name}: a round maintains it with {other.host.name}")
            continue
        theirs = set(other.share_keys.values())
        shared = sum(key in theirs for key in view.share_keys.values())
        print(f"-- {shared} statements shared with {other.name}: a round computes them once")
    print()
    print("-- live slices: statements a round on one base i-diff runs --")
    print(_describe_reach(view.script))
    # the base tables the engine replicates for this view's pre-state reads
    print(f"Input_pre: {', '.join(sorted(view.pre_tables)) or 'none'}")
    if args.analyze:
        print()
        print("-- EXPLAIN ANALYZE (actual rows / accesses) " + "-" * 17)
        print(explain_analyze(view.plan, db))
    if args.cost:
        print()
        print("-- symbolic cost model (repro.analysis.cost) " + "-" * 16)
        print(view.cost_model.render())
        if args.analyze and "parts" in base_tables(view.plan):
            engine.log.update("parts", ("P1",), {"price": 11})
            report = engine.maintain()["V"]
            print()
            print("-- predicted vs measured (demo price update) " + "-" * 15)
            _print_reconciliation(report)
            rebuilds = metrics.counter("engine.prestate_rebuilds").value
            print(f"  Input_pre: replica rolled forward by the log ({rebuilds} rebuilds)")
            rollbacks = metrics.counter("engine.view_rollbacks").value
            print(f"  view-rounds rolled back after a failure: {rollbacks} (engine.view_rollbacks)")
    return 0


def _describe_reach(script) -> str:
    """Per base i-diff instance, how many of the script's statements a
    round that modifies only it runs (always-live ones included)."""
    always = sum(script.reached(frozenset()))
    lines = [
        f"  {name}: {sum(script.reached(frozenset((name,))))} of {len(script)}"
        for name in sorted(script.leaves())
    ]
    lines.append(f"  (always live: {always}; an empty round runs only those)")
    return "\n".join(lines)


def _print_reconciliation(report) -> None:
    """Per-phase predicted-vs-measured table + COST503 deviations."""
    from .analysis.cost import SCRIPT_PHASES, reconcile_report

    predicted = report.predicted_counts or {}
    for phase in SCRIPT_PHASES:
        measured = report.phase_counts.get(phase)
        phase_pred = predicted.get(phase)
        if measured is None and phase_pred is None:
            continue
        md = measured.as_dict() if measured is not None else {}
        pd = phase_pred or {}
        print(
            f"  {phase}: measured "
            f"L={md.get('index_lookups', 0)} "
            f"R={md.get('tuple_reads', 0)} "
            f"W={md.get('tuple_writes', 0)} | predicted "
            f"L={pd.get('index_lookups', 0.0):.1f} "
            f"R={pd.get('tuple_reads', 0.0):.1f} "
            f"W={pd.get('tuple_writes', 0.0):.1f}"
        )
    deviations = reconcile_report(report)
    for dev in deviations:
        print(f"  COST503 {dev.render()}")
    if not deviations:
        print("  reconciliation: all phases within tolerance")


_SWEEP_PARAMS = {
    "d": ("diff_size", int),
    "s": ("selectivity", float),
    "f": ("fanout", int),
    "j": ("joins", int),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: a Figure 12 style parameter sweep."""
    field, caster = _SWEEP_PARAMS[args.param]
    values = [caster(v) for v in args.values.split(",")]
    points: list[SweepPoint] = []
    for value in values:
        kwargs = {
            "n_parts": args.parts,
            "n_devices": args.parts,
            "diff_size": min(200, max(1, args.parts // 5)),
        }
        if args.param == "j":
            kwargs["with_selection"] = False
        kwargs[field] = value  # the swept parameter wins (e.g. --param d)
        config = DevicesConfig(**kwargs)
        results: dict[str, SystemResult] = {}
        for label, factory in (
            ("idIVM", IdIvmEngine),
            ("tuple", TupleIvmEngine),
        ):
            results[label] = run_system(
                label,
                db_factory=lambda: build_devices_database(config),
                make_engine=factory,
                build_view=lambda db: build_aggregate_view(db, config),
                log_modifications=lambda engine, db: apply_price_updates(
                    engine, db, config
                ),
            )
        points.append(SweepPoint(parameter=value, results=results))
    print(
        format_sweep(
            f"devices sweep over {args.param}",
            args.param,
            points,
            systems=("idIVM", "tuple"),
            phases=("cache_update", "view_diff", "view_update"),
        )
    )
    return 0


def cmd_bsma(args: argparse.Namespace) -> int:
    """``repro bsma``: the Figure 10 comparison."""
    config = BsmaConfig(n_users=args.users)
    rows = []
    for name, build in BSMA_QUERIES.items():
        costs = {}
        for label, factory in (
            ("id", IdIvmEngine),
            ("tuple", TupleIvmEngine),
        ):
            db = build_bsma_database(config)
            engine = factory(db)
            engine.define_view(name, build(db, config))
            log_user_updates(engine, db, config, args.updates)
            costs[label] = engine.maintain()[name].total_cost
        rows.append(
            (name, costs["id"], costs["tuple"], costs["tuple"] / max(costs["id"], 1))
        )
    print(format_figure10(rows))
    return 0


def cmd_crosscheck(args: argparse.Namespace) -> int:
    """``repro crosscheck``: the differential fuzzer as a gate."""
    import time

    from .crosscheck import (
        ALL_STRATEGIES,
        STRATEGY_FACTORIES,
        case_label,
        generate_case,
        run_case,
        save_corpus_case,
        shrink_case,
    )

    if args.strategies:
        strategies = tuple(s.strip() for s in args.strategies.split(","))
        unknown = [s for s in strategies if s not in STRATEGY_FACTORIES]
        if unknown:
            print(
                f"repro crosscheck: unknown strategies {unknown}; "
                f"choose from {', '.join(STRATEGY_FACTORIES)}",
                file=sys.stderr,
            )
            return 2
    else:
        strategies = ALL_STRATEGIES

    start = time.perf_counter()
    divergent = 0
    for index in range(args.cases):
        case = generate_case(args.seed, index)
        with obs.span(
            f"case[{args.seed}:{index}]",
            kind="crosscheck_case",
            seed=args.seed,
            index=index,
        ):
            result = run_case(case, strategies)
        metrics.counter("crosscheck.cases").inc()
        if result.ok:
            continue
        divergent += 1
        metrics.counter("crosscheck.divergences").inc(len(result.divergences))
        print(f"case {index} ({case_label(case)}) DIVERGED:")
        for d in result.divergences:
            print(f"  {d}")
        if args.no_shrink:
            continue
        small = shrink_case(case, result)
        print(f"  shrunk to: {case_label(small)}")
        if not args.no_save:
            path = save_corpus_case(
                small,
                f"fuzz_s{args.seed}_c{index}",
                label=f"fuzzer seed {args.seed} case {index}",
                divergence=str(result.divergences[0]),
            )
            print(f"  reproducer saved: {path}")
    elapsed = time.perf_counter() - start
    rate = args.cases / elapsed if elapsed > 0 else float("inf")
    metrics.gauge("crosscheck.cases_per_sec").set(round(rate, 2))
    print(
        f"crosscheck: {args.cases} cases x {len(strategies)} strategies "
        f"(seed {args.seed}) in {elapsed:.1f}s ({rate:.1f} cases/s): "
        + (f"{divergent} DIVERGENT" if divergent else "all clean")
    )
    return 1 if divergent else 0


def lint_targets():
    """(label, plan, db) for every shipped workload view.

    Small config sizes: the analyzer is static, the data only feeds key
    and foreign-key metadata to the passes.
    """
    from .workloads.devices import build_flat_view

    dev_config = DevicesConfig(n_parts=20, n_devices=20, diff_size=4, fanout=2)
    dev_db = build_devices_database(dev_config)
    yield "devices/flat", build_flat_view(dev_db, dev_config), dev_db
    yield "devices/aggregate", build_aggregate_view(dev_db, dev_config), dev_db
    bsma_config = BsmaConfig(n_users=30, friends_per_user=3, n_tweets=60)
    bsma_db = build_bsma_database(bsma_config)
    for name in sorted(BSMA_QUERIES):
        yield f"bsma/{name}", BSMA_QUERIES[name](bsma_db, bsma_config), bsma_db


def cost_targets():
    """(label, make_db, make_plan, log_updates) per shipped view, for the
    ``lint --cost`` demo rounds — fresh state per target (maintenance
    mutates the database, unlike the purely static passes)."""
    from .workloads.devices import build_flat_view

    # 16 price updates write 10-13 view tuples a round: every round's
    # writes reach the drift monitor's MIN_VOLUME, so the flat APPLY's
    # write term is tracked over every round
    dev_config = DevicesConfig(n_parts=50, n_devices=50, diff_size=16, fanout=3)
    bsma_config = BsmaConfig(n_users=40, friends_per_user=4, n_tweets=80)

    def dev_updates(engine, db, round_seed=0):
        apply_price_updates(engine, db, dev_config, round_seed=round_seed)

    def bsma_updates(engine, db, round_seed=0):
        log_user_updates(
            engine, db, bsma_config, n_updates=12, round_seed=round_seed
        )

    yield (
        "devices/flat",
        lambda: build_devices_database(dev_config),
        lambda db: build_flat_view(db, dev_config),
        dev_updates,
    )
    yield (
        "devices/aggregate",
        lambda: build_devices_database(dev_config),
        lambda db: build_aggregate_view(db, dev_config),
        dev_updates,
    )
    for name in sorted(BSMA_QUERIES):
        yield (
            f"bsma/{name}",
            lambda: build_bsma_database(bsma_config),
            lambda db, n=name: BSMA_QUERIES[n](db, bsma_config),
            bsma_updates,
        )


def _severity_rank(severity: str) -> int:
    from .analysis import ERROR, WARNING

    return {ERROR: 0, WARNING: 1}.get(severity, 2)


def _filter_report(report, rules, min_severity):
    """A copy of *report* keeping only the selected diagnostics."""
    from .analysis import AnalysisReport

    kept = AnalysisReport()
    threshold = _severity_rank(min_severity) if min_severity else 2
    for diag in report.diagnostics:
        if rules and diag.rule_id not in rules:
            continue
        if _severity_rank(diag.severity) > threshold:
            continue
        kept.diagnostics.append(diag)
    return kept


#: Seeded rounds per view in ``lint --cost``: enough evidence for the
#: drift monitor (min_rounds=3) plus one round of smoothing.
_LINT_DRIFT_ROUNDS = 4


def _cmd_lint_cost(args: argparse.Namespace, rules, json_out: dict) -> int:
    """The ``lint --cost`` mode: live seeded demo rounds per shipped view
    with predicted-vs-measured reconciliation (COST503) and sustained
    drift reporting (COST504).

    COST503 deviations gate the exit code (they are warnings); COST504
    is informational — a drifting-but-within-tolerance model never
    breaks the lint gate.
    """
    from .analysis import AnalysisReport
    from .analysis.cost import cost_diagnostics, drift_diagnostics

    n_gating = 0
    for label, make_db, make_plan, log_updates in cost_targets():
        db = make_db()
        engine = IdIvmEngine(db)
        engine.define_view(label, make_plan(db))
        report = None
        for round_seed in range(_LINT_DRIFT_ROUNDS):
            log_updates(engine, db, round_seed=round_seed)
            report = engine.maintain()[label]
        analysis = AnalysisReport()
        deviations = cost_diagnostics(report, analysis)
        drift_alerts = drift_diagnostics(engine.drift, analysis)
        filtered = _filter_report(analysis, rules, args.min_severity)
        # only error/warning diagnostics gate: COST504 is info severity.
        n_gating += len(filtered.errors) + len(filtered.warnings)
        if args.json:
            json_out.setdefault("cost", []).append(
                {
                    "view": label,
                    "rounds": _LINT_DRIFT_ROUNDS,
                    "predicted": report.predicted_counts,
                    "measured": {
                        phase: counts.as_dict()
                        for phase, counts in report.phase_counts.items()
                        if phase != "__total__"
                    },
                    "drift": engine.drift.snapshot(),
                    "diagnostics": filtered.to_json(),
                }
            )
        else:
            status = (
                "reconciled" if not deviations else f"{len(deviations)} deviation(s)"
            )
            if drift_alerts:
                status += f", {len(drift_alerts)} drift alert(s)"
            print(f"== {label}: {status}")
            _print_reconciliation(report)
            for diag in filtered.diagnostics:
                if diag.rule_id == "COST504":
                    print(f"  COST504 {diag.message}")
    return 1 if n_gating else 0


def _lint_view_entry(label, plan, db, cache):
    """Analyze one lint target through the incremental analysis cache.

    Returns ``(report, facts)``.  On a cache hit the frozen diagnostics
    and sharing facts replay without generating or analyzing anything.
    The analyzed script is the one the engine would store and execute —
    there is one per view, whatever the execution backend.
    """
    from .analysis import entry_from_report, plan_cache_key, report_from_entry, view_facts
    from .analysis.cost import lint_definition
    from .analysis.sharing import facts_from_json, facts_to_json

    key = ""
    if cache is not None:
        key = plan_cache_key(plan, db, label)
        entry = cache.get(key)
        if entry is not None:
            return report_from_entry(entry), facts_from_json(entry["facts"])

    # The script the engine would ship — through the same definition
    # pipeline, cost selection included (COST501/502 findings on the
    # default pipeline are fixed, not just reported) — and its model.
    generated, report = lint_definition(label, plan, db)
    facts = view_facts(label, generated, db)
    if cache is not None:
        cache.put(key, entry_from_report(report, {"facts": facts_to_json(facts)}))
    return report, facts


def _lint_reports(targets, rules, min_severity, cache):
    """Lint every ``(label, plan, db)`` of *targets* (or replay it from
    the cache), then run the catalog-scope sharing pass over their
    facts.  Returns ``(reports, sharing, n_errors, n_warnings)``, each
    report filtered by *rules* and *min_severity*."""
    from .analysis import analyze_catalog

    reports = []
    facts_list = []
    for label, plan, db in targets:
        report, facts = _lint_view_entry(label, plan, db, cache)
        facts_list.append(facts)
        reports.append((label, _filter_report(report, rules, min_severity)))
    if cache is not None:
        cache.flush()
    sharing = _filter_report(analyze_catalog(facts_list), rules, min_severity)
    n_errors = sum(len(r.errors) for _, r in reports) + len(sharing.errors)
    n_warnings = sum(len(r.warnings) for _, r in reports) + len(sharing.warnings)
    return reports, sharing, n_errors, n_warnings


def _cmd_lint_catalog(args: argparse.Namespace, rules, cache) -> int:
    """``repro lint --catalog``: the generated thousand-view catalog.

    Per-view passes run (or replay from the cache) for every catalog
    view; the catalog-scope sharing pass then runs over the collected
    facts.  JSON output is byte-identical between cold and warm runs —
    cache statistics are printed only in human mode.
    """
    import json

    from .catalog import CatalogConfig, build_catalog_database, catalog_views

    n_views = _CATALOG_VIEWS if args.catalog_views is None else args.catalog_views
    config = CatalogConfig(n_views=n_views)
    db = build_catalog_database(config)
    reports, sharing, n_errors, n_warnings = _lint_reports(
        ((label, plan, db) for label, plan in catalog_views(db, config)),
        rules, args.min_severity, cache,
    )
    if args.json:
        findings = [
            {"view": label, "diagnostics": report.to_json()}
            for label, report in reports
            if report.errors or report.warnings or (rules and report.diagnostics)
        ]
        payload = {
            "catalog": {
                "views": len(reports),
                "errors": n_errors,
                "warnings": n_warnings,
                "findings": findings,
                "sharing": sharing.to_json(),
            }
        }
        print(json.dumps(payload, indent=2))
    else:
        for label, report in reports:
            interesting = report.errors + report.warnings
            if interesting:
                print(f"== {label}: {len(report.errors)} error(s), "
                      f"{len(report.warnings)} warning(s)")
                for diag in interesting:
                    print(diag.render())
        if sharing.diagnostics:
            print(sharing.render())
        print(
            f"lint --catalog: {len(reports)} views, {n_errors} error(s), "
            f"{n_warnings} warning(s), "
            f"{len(sharing.diagnostics)} sharing finding(s)"
        )
        if cache is not None:
            print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es)")
    return 1 if n_errors else 0


#: ``--catalog`` size when ``--catalog-views`` is not given.
_CATALOG_VIEWS = 1000


def _ignored_lint_flag(args: argparse.Namespace) -> str | None:
    """Names the first flag given that the selected lint mode never reads."""
    for flag, ignored, mode in (
        ("--cost", args.catalog and args.cost, "with --catalog"),
        ("--verbose", args.catalog and args.verbose, "with --catalog"),
        ("--verbose", args.json and args.verbose, "with --json"),
        ("--catalog-views", not args.catalog and args.catalog_views is not None,
         "without --catalog"),
    ):
        if ignored:
            return f"{flag} has no effect {mode}"
    return None


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: static analysis over every shipped view."""
    import json

    from .analysis import RULES, AnalysisCache

    ignored = _ignored_lint_flag(args)
    if ignored is not None:
        print(f"lint: {ignored}", file=sys.stderr)
        return 2

    rules: set[str] = set()
    if args.rule:
        rules = {r.strip() for r in args.rule.split(",") if r.strip()}
        unknown = rules - set(RULES)
        if unknown:
            print(
                f"lint: unknown rule id(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2

    cache = None if args.cache_dir is None else AnalysisCache(args.cache_dir)
    if args.catalog:
        return _cmd_lint_catalog(args, rules, cache)

    json_out: dict = {}
    cost_status = 0
    if args.cost:
        cost_status = _cmd_lint_cost(args, rules, json_out)

    # The catalog-scope sharing pass runs over the shipped views.
    reports, sharing, n_errors, n_warnings = _lint_reports(
        lint_targets(), rules, args.min_severity, cache
    )
    if args.json:
        payload = {
            "views": [
                {"view": label, "diagnostics": report.to_json()}
                for label, report in reports
            ],
            "sharing": sharing.to_json(),
            "errors": n_errors,
            "warnings": n_warnings,
        }
        payload.update(json_out)
        # default=dict: the read-only predicted_counts mappings
        print(json.dumps(payload, indent=2, default=dict))
    else:
        for label, report in reports:
            interesting = report.errors + report.warnings
            status = "clean" if not interesting else (
                f"{len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s)"
            )
            print(f"== {label}: {status}")
            if args.verbose:
                print(report.render())
            else:
                for diag in interesting:
                    print(diag.render())
        if sharing.diagnostics and (args.verbose or sharing.errors or sharing.warnings):
            print(sharing.render())
        print(
            f"lint: {len(reports)} views, {n_errors} error(s), "
            f"{n_warnings} warning(s)"
        )
    return 1 if n_errors else cost_status


def cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: the live telemetry dashboard."""
    from .obs import top as obs_top

    return obs_top.run(args)


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="idIVM: ID-based incremental view maintenance "
        "(SIGMOD 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command")

    demo = sub.add_parser("demo", help="run the paper's running example")
    demo.set_defaults(handler=cmd_demo)

    explain = sub.add_parser("explain", help="show the plan and ∆-script of a view")
    explain.add_argument("--sql", required=True, help="view definition over the demo schema")
    explain.add_argument(
        "--also", action="append", metavar="SQL",
        help="another view defined beside V (V2, V3, …); prints how many of "
        "V's statements it holds too, which a round computes once, or which "
        "view's cache answers it",
    )
    explain.add_argument(
        "--no-minimize", action="store_true", help="skip Pass 4 (Figure 8 rewrites)"
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the plan and print per-operator actual rows and accesses",
    )
    explain.add_argument(
        "--compiled",
        action="store_true",
        help="print the Python source generated for each compute step "
        "and γ accumulation loop",
    )
    explain.add_argument(
        "--cost",
        action="store_true",
        help="print the symbolic per-phase cost model; with --analyze, "
        "also reconcile it against a measured demo round",
    )
    explain.set_defaults(handler=cmd_explain)

    sweep = sub.add_parser("sweep", help="Figure 12 style parameter sweep")
    sweep.add_argument("--param", choices=sorted(_SWEEP_PARAMS), required=True)
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--parts", type=int, default=500, help="parts/devices table size")
    sweep.set_defaults(handler=cmd_sweep)

    bsma = sub.add_parser("bsma", help="Figure 10 social-analytics comparison")
    bsma.add_argument("--users", type=int, default=400)
    bsma.add_argument("--updates", type=int, default=100)
    bsma.set_defaults(handler=cmd_bsma)

    crosscheck = sub.add_parser(
        "crosscheck", help="differential fuzzer: all strategies vs recompute"
    )
    crosscheck.add_argument("--seed", type=int, default=0, help="stream seed")
    crosscheck.add_argument(
        "--cases", type=int, default=100, help="number of generated cases"
    )
    crosscheck.add_argument(
        "--strategies",
        default=None,
        help="comma-separated subset of strategies (default: all)",
    )
    crosscheck.add_argument(
        "--no-shrink",
        action="store_true",
        help="report divergences without minimizing them",
    )
    crosscheck.add_argument(
        "--no-save",
        action="store_true",
        help="do not write shrunken reproducers into tests/regressions/",
    )
    crosscheck.set_defaults(handler=cmd_crosscheck)

    lint = sub.add_parser(
        "lint", help="static analysis of every shipped workload view"
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable diagnostics"
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="include info-severity diagnostics (the SHARE70x sharing reports)",
    )
    lint.add_argument(
        "--rule",
        help="comma-separated rule ids to report (e.g. SC307,COST503); "
        "others are suppressed",
    )
    lint.add_argument(
        "--min-severity",
        choices=("error", "warning", "info"),
        help="drop diagnostics below this severity",
    )
    lint.add_argument(
        "--cost",
        action="store_true",
        help="run a live demo round per view and reconcile measured "
        "access counts against the symbolic cost prediction (COST503)",
    )
    lint.add_argument(
        "--catalog",
        action="store_true",
        help="lint the generated thousand-view catalog (repro.catalog) "
        "instead of the shipped workload views, including the "
        "catalog-scope sharing pass (SHARE7xx)",
    )
    lint.add_argument(
        "--catalog-views",
        type=int,
        default=None,
        metavar="N",
        help=f"catalog size for --catalog (default: {_CATALOG_VIEWS})",
    )
    lint.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="keep an incremental analysis cache in DIR; a later run of "
        "the same code replays unchanged views from it (default: no cache)",
    )
    lint.set_defaults(handler=cmd_lint)

    top = sub.add_parser(
        "top",
        help="live dashboard: staleness, latency percentiles, drift",
    )
    from .obs.top import add_arguments as _top_arguments

    _top_arguments(top)
    top.set_defaults(handler=cmd_top)

    for traced in (demo, sweep, bsma, crosscheck):
        traced.add_argument(
            "--trace",
            metavar="FILE.jsonl",
            default=None,
            help="record a JSONL span trace of every maintenance round",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Usage errors (no command, unknown command, bad flags) print the
    argparse message and return a non-zero code instead of raising
    ``SystemExit``, so embedding callers get a consistent contract.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse error (code 2) or --help (code 0)
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: a command is required", file=sys.stderr)
        return 2
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return args.handler(args)
    with recording() as rec:
        code = args.handler(args)
    try:
        n_spans = write_trace(rec, trace_path)
    except OSError as exc:
        print(f"{parser.prog}: error: cannot write trace: {exc}", file=sys.stderr)
        return 1
    print(f"[trace] wrote {n_spans} spans to {trace_path}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
