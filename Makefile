PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-sharded smoke smoke-obs bench bench-compare ab-rounds intercept perf-gate \
	fuzz lint lint-catalog lint-static

test:
	$(PYTHON) -m pytest -x -q

# Equivalence tests at an explicit shard count and backend set (the CI
# matrix legs): REPRO_SHARDS=1,4 REPRO_BACKEND=process make test-sharded
# REPRO_RACE_CHECK=true arms the dynamic write-set race detector on
# every engine the suite builds; a test after which shard.race_overlaps
# or shard.uncaptured_writes is non-zero fails.
REPRO_SHARDS ?= 1,2,4,8
REPRO_BACKEND ?= inline,process
REPRO_RACE_CHECK ?=
test-sharded:
	REPRO_SHARDS=$(REPRO_SHARDS) REPRO_BACKEND=$(REPRO_BACKEND) \
	    REPRO_RACE_CHECK=$(REPRO_RACE_CHECK) \
	    $(PYTHON) -m pytest tests/test_sharded.py -x -q

smoke:
	$(PYTHON) -m repro demo --trace /tmp/repro_trace.jsonl
	$(PYTHON) -m repro.obs.trace /tmp/repro_trace.jsonl
	$(PYTHON) -m pytest benchmarks/bench_parallel_shards.py --benchmark-disable -q

# Observability smoke: boot the live telemetry endpoint (DemoLoop +
# ThreadingHTTPServer), scrape /metrics /snapshot /freshness /healthz
# over real HTTP, validate the Prometheus exposition, and leave the
# freshness report at OBS_FRESHNESS (uploaded as a CI artifact).  Also
# renders one `repro top` frame so the dashboard path stays exercised.
OBS_FRESHNESS ?= /tmp/repro_freshness.json
smoke-obs:
	$(PYTHON) -m repro.obs.smoke --out $(OBS_FRESHNESS)
	$(PYTHON) -m repro top --once --no-clear --users 60 --updates 12

bench:
	$(PYTHON) -m pytest benchmarks --benchmark-disable -q

# Paired end-to-end comparison of revision BASE against this tree: a
# `git worktree` of BASE, the e2e suite on both trees REPS times in
# alternating order, then `benchmarks/e2e/run.py --compare` against the
# bounds of BENCHMARK.json.  BENCH_COMPARE_ARGS passes e.g.
# `--workloads devices_bigdb_d20 --out-dir DIR` through.
BASE ?= HEAD~1
REPS ?= 3
bench-compare:
	$(PYTHON) benchmarks/compare_revisions.py --base $(BASE) --reps $(REPS) \
	    $(BENCH_COMPARE_ARGS)

# Interleaved A/B rounds of revision BASE against this tree in one
# process (tools/ab_rounds.py): the same op stream, the order alternating
# every round, equal per-round access counts asserted; prints per-side
# medians and the paired round ratios.  WORKLOADS: a comma-separated
# subset of the e2e suite (default: the gated four).  GC=1: also run each
# side alone and print its collections per round (gen0 / gen1 / gen2).
WORKLOADS ?=
GC ?=
ab-rounds:
	$(PYTHON) tools/ab_rounds.py --base $(BASE) $(if $(WORKLOADS),--workloads $(WORKLOADS)) \
	    $(if $(GC),--gc)

# The fixed cost of a round (tools/round_intercept.py): bsma's eight
# views at 0 / 1 / 5 / 20 user updates per round, untraced maintain()
# p50 over 400 rounds after 20 warm-up rounds, and the slope and
# intercept of the line through it.  TREE=<dir> measures another
# checkout's src/repro.
TREE ?=
intercept:
	$(PYTHON) tools/round_intercept.py $(if $(TREE),--tree $(TREE))

# Perf-regression gate: re-run the fast access-count benchmarks and
# diff each fresh BENCH_*.json against benchmarks/baselines/.  Access
# counts must match exactly (they are deterministic); wall-clock fields
# must be present and their values are never compared.
PERF_GATE_BENCHES = \
    benchmarks/bench_table2_spj_costs.py \
    benchmarks/bench_table3_agg_costs.py \
    benchmarks/bench_speedup_model.py \
    benchmarks/bench_eager_vs_deferred.py \
    benchmarks/bench_minimization.py \
    benchmarks/bench_parallel_shards.py \
    benchmarks/bench_compiled.py \
    benchmarks/bench_catalog_lint.py \
    benchmarks/bench_fig10_bsma.py \
    benchmarks/bench_fig12a_diff_size.py \
    benchmarks/bench_fig12b_joins.py \
    benchmarks/bench_fig12c_selectivity.py \
    benchmarks/bench_fig12d_fanout.py \
    benchmarks/bench_break_even.py \
    benchmarks/bench_ablation_cache_policy.py \
    benchmarks/bench_crosscheck.py \
    benchmarks/bench_view_reuse.py
perf-gate:
	REPRO_PERF_GATE=1 $(PYTHON) -m pytest $(PERF_GATE_BENCHES) --benchmark-disable -q

# Domain lint: the repro.analysis static verifier over every shipped
# workload view.  Exits non-zero on error-severity diagnostics.
lint:
	$(PYTHON) -m repro lint

# Catalog-scale lint: the deterministic thousand-view catalog through
# the incremental analysis cache in .repro-cache/ and the catalog-scope
# sharing pass.  A second run of the same code is warm; the cache file
# names the code that wrote it, so after any edit to src/repro the next
# run is cold.  CI uploads the cache artifact.
lint-catalog:
	$(PYTHON) -m repro lint --catalog --cache-dir .repro-cache

# Conventional static checks (ruff + mypy, configured in pyproject).
# Both are optional in the dev container; absent tools are skipped so
# the target stays green locally and strict in CI (which installs them).
# The grep guards always run: there is one maintenance round loop
# (core/engine.py), and the crosscheck oracle's private log is the only
# place allowed to drain one; and the modification log is the one ledger
# of what each view absorbed — only core/modlog.py assigns a cursor, and
# obs/freshness.py keeps no position of its own; and there is one physical write
# path (storage/table.py) — only it and the crosscheck invariants that
# audit it may name another object's rows dict or index map, and only it
# its write journal, armed by the view-round (core/engine.py) and the
# shard write-sets (shard/workers.py, core/sharded.py) alone; and APPLY
# is one bulk `Table` call per diff (core/apply.py) — the per-row
# primitives are for the baselines and the γ group-creation path; and
# there is one i-diff batch class (core/diffs.py `Diff`, no subclass)
# and one statement loop (core/script.py `execute_script`, no twin);
# and one ∆-script per view: compilation binds kernels onto the stored
# script (core/compile.py `bind_kernels`) — no `ComputeDiffStep`
# subclass carrying a second `run`, no second `DeltaScript` built by
# the compiler; and one mechanism that skips idle statements: the live
# slice of `DeltaScript.live_plan`, closed by the one `step_liveness`
# (core/script.py) for both backends and the shard workers — no per-step
# emptiness wrapper in the compiler, no second closure over
# `driving_sources`; and one compiler: a compute step is lowered to one
# generated function (core/compile.py `lower_step`) — no tree of per-row
# closures beside it; and one fold per round: `fold_log` is called by
# core/modlog.py alone (the round's `RoundEntries` memoise it) — the
# engines, the baselines, `PreState` and the shard workers read the
# round's entries; and one evaluation per definition: inside every
# definition hook (`_define`, `define_script`, `lint_definition`) rows
# are read from the definition's one `PlanStats` — `stats.rows(node)`,
# `materialize(…, stats)`, `define_script(…, stats, …)`,
# `infer_script_cost(…, stats=stats)` — so no sub-plan is derived twice
# and every one runs the generated plan operators; and the interpretive
# reference stays independent of them: `evaluate_plan(node, db)` takes
# no third argument (no memo) and algebra/evaluate.py imports nothing
# from repro.core (the code generator lives there); and a script is
# priced once, or its definition fails: `infer_script_cost` is called
# only in analysis/cost.py, a `PlanStats` is built only there and by
# `MaintenanceEngine.define_view` (core/engine.py), the generator, the
# engine, the sharing pass and the cost walker swallow no exception, and
# no pricing fallback or its counter (`price_script`,
# `COST_*_FALLBACKS`, `engine.cost_*_fallbacks`) is left in src/; and
# the tuple-based baseline is idIVM with the tuple rule set:
# baselines/tuple_ivm.py holds the engine class and evaluates nothing
# itself, the rule bodies live under core/rules/, and a script reads
# subviews through its view's generated readers (core/compile.py
# `SubviewReaders`) — `IrContext.resolve_subview` is called only by the
# interpreter (core/ir_exec.py), and `fetch` only by
# algebra/delta_eval.py, core/ir_exec.py and the SDBT baseline, whose
# sequential hybrid state copies no database; and generated code has no
# interpreter inside it: core/compile.py imports neither the diff-driven
# loop (algebra.delta_eval, its `Bindings`), nor the per-row expression
# evaluator (repro.expr `evaluate`), nor the reference plan operator
# (`apply_operator`), and keeps no `*_fallbacks` counter — a form the
# emitter cannot lower raises when the view is defined, the exception
# class the interpreter raises for it at run time, so a compiled view
# runs generated code only and the compiled-vs-interp count checks
# compare two independent executors; and
# telemetry keeps one copy of each fact: every registry histogram is the
# log histogram of obs/hist.py (no histogram class in obs/metrics.py, no
# summary family on /metrics), and a view's worst drift ratio is derived
# from the EWMAs where it is read, never stored; and a round looks up one
# metric by name: the statement loop, instance population, a view's
# maintenance, the round's finish and the drift intake hold handles
# (tools/check_round_metrics.py, an AST walk); and one thread writes the
# engine's state: only obs/live.py and obs/smoke.py, which start the
# threads, name `threading`, and no histogram is sharded per thread; and
# `Input_pre` holds only what a script reads: no engine flag says whether
# its rules read the pre-state (`reads_pre_state`) — each view declares
# its tables — and `_reconstruct_pre` (core/engine.py) makes the one
# `Database.copy` of src/repro; and shard disjointness has one static
# proof: the router's veto walk (`_analyze_step` / `_analyze_ir`) is
# defined in shard/router.py alone — no lint pass keeps a copy of it —
# and nothing in src/ forces a route past it (`route_override`,
# `force_route`, a veto-less `ProvenanceTracker`); a mis-routed round is
# a test fixture that patches the router, and the run-time check is
# `ShardedEngine(race_check=...)`; and a database has one counter set,
# which no engine rebinds: only src/repro/storage/ assigns `.counters`,
# a shard is measured by the counts it adds to its database's set (a
# process worker's are merged in once), and nothing in src/ brings back
# the routing facade (`ShardRoutingCounters`) or the routability lint
# that re-ran the router on dummy rows (`shard_check`, SH401/SH402); and
# an analysis cache file is valid for the code that wrote it: its header
# carries a digest of src/repro's Python files, so nothing in src/ keeps
# a hand-bumped substitute (a pass `version=` through `register_pass` /
# `register_catalog_pass` / `pass_versions`, `SHARING_PASS_VERSION`,
# `CACHE_SCHEMA_VERSION`, `FINGERPRINT_VERSION`, `SHARE_KEY_VERSION`,
# the generator knobs of `_LINT_KNOBS`), and `repro lint` caches only
# when given `--cache-dir` (no `--no-cache` flag, no default cache
# directory written by a plain run; "no-cache" alone is the cost model's
# word for a plan without an intermediate cache, COST502); and a view's
# ∆-script is decided by one pipeline: `ScriptGenerator(` is built only
# in analysis/cost.py (`define_script`, which prices and selects, and
# the alternatives it and the cost pass price) — every engine, `repro
# lint` and the crosscheck fuzzer define through `define_script` /
# `lint_definition`, so nothing checks a script other than the one that
# ships.
lint-static:
	@if grep -nE '\.(chain|materialized)\b' src/repro/analysis/sharing.py \
	    | grep -vE 'hosting\.(define|materialize)\(facts\.label, facts\.chain(, facts\.materialized)?\)|list\(facts\.(chain|materialized)\)'; then \
	    echo "a chain/cache fingerprint match in analysis/sharing.py: SHARE703 reads core.share.Hosting, the engine's binding"; \
	    exit 1; fi
	@if grep -rnE 'def maintain\b' src/repro --include='*.py' \
	    | grep -vE '^src/repro/core/engine\.py:'; then \
	    echo "round loop outside core/engine.py: use MaintenanceEngine.maintain"; \
	    exit 1; fi
	@if grep -rnE 'log\.take\(\)' src/repro --include='*.py' \
	    | grep -vE '^src/repro/crosscheck/runner\.py:[0-9]+: *log\.take\(\)$$'; then \
	    echo "log.take() outside the crosscheck oracle: a view reads the log from its cursor (ModificationLog.since)"; \
	    exit 1; fi
	@if grep -nE '_pending|note_logged|_log_position|applied_position' src/repro/obs/freshness.py; then \
	    echo "obs/freshness.py keeps a log position: read the ModificationLog's head, cursors and stamps"; \
	    exit 1; fi
	@if grep -rnE 'cursors(\[[^]]*\])? *[-+]?=[^=]|cursors\.(update|setdefault|pop|clear)\(' \
	    src/repro --include='*.py' | grep -vE '^src/repro/core/modlog\.py:'; then \
	    echo "a cursor assigned outside core/modlog.py: ModificationLog.advance / discard move them"; \
	    exit 1; fi
	@if grep -rnE '\._(rows|indexes)\b' src/repro --include='*.py' \
	    | grep -vE '^src/repro/(storage/table|crosscheck/invariants)\.py:|\bself\._rows\b'; then \
	    echo "Table internals outside storage/table.py: use its public readers and writers"; \
	    exit 1; fi
	@if grep -rnE '\bbegin_journal\(' src/repro --include='*.py' \
	    | grep -vE '^src/repro/(core/engine|shard/workers|core/sharded)\.py:|^src/repro/storage/table\.py:[0-9]+: +def begin_journal\('; then \
	    echo "begin_journal outside core/engine.py (the view-round), shard/workers.py and core/sharded.py (write-sets, the RACE604 check): one journal per view-round"; \
	    exit 1; fi
	@if grep -rnE '\b_journal\b' src/repro --include='*.py' | grep -vE '^src/repro/storage/table\.py:'; then \
	    echo "a Table's journal read outside storage/table.py: use begin_journal / end_journal"; \
	    exit 1; fi
	@if grep -nE '\b(write_at|delete_at|insert_checked|locate)\(' src/repro/core/apply.py; then \
	    echo "per-row Table write in core/apply.py: use update_many / insert_many / delete_many"; \
	    exit 1; fi
	@if grep -rnE '\b(eval|exec)\(' src/repro --include='*.py' \
	    | grep -vE '^src/repro/(core/compile|storage/table)\.py:'; then \
	    echo "generated code outside core/compile.py and storage/table.py: a generated writer is a second write path unless the table module owns it"; \
	    exit 1; fi
	@if grep -rnE 'class +\w+\((\w+\.)?Diff\)' src/repro --include='*.py'; then \
	    echo "second i-diff batch class: Diff is the one batch type (Diff.trusted adopts validated rows)"; \
	    exit 1; fi
	@if [ "$$(grep -cE 'def +\w*execute_script' src/repro/core/script.py)" != 1 ]; then \
	    echo "core/script.py must hold exactly one execute_script: tracing is a branch of its loop, not a twin"; \
	    exit 1; fi
	@if grep -rnE 'class +\w+\((\w+\.)?ComputeDiffStep\)' src/repro --include='*.py'; then \
	    echo "ComputeDiffStep subclass: lower the step to a kernel and bind it (core/compile.py bind_kernels)"; \
	    exit 1; fi
	@if grep -nE '\bDeltaScript\(' src/repro/core/compile.py; then \
	    echo "core/compile.py builds a DeltaScript: kernels are bound onto the view's one stored script"; \
	    exit 1; fi
	@if grep -nE 'for name in _names' src/repro/core/compile.py; then \
	    echo "per-step emptiness wrapper in core/compile.py: idle statements are skipped by the live slice (DeltaScript.live_plan)"; \
	    exit 1; fi
	@if [ "$$(grep -rhE 'def +step_liveness\b' src/repro --include='*.py' | wc -l)" != 1 ] \
	    || grep -rnE '\bdriving_sources\(' src/repro --include='*.py' \
	    | grep -vE '^src/repro/core/(ir_exec|script)\.py:'; then \
	    echo "liveness is closed in one place: step_liveness in core/script.py, over ir_exec.driving_sources"; \
	    exit 1; fi
	@if grep -nE 'lambda +row\b' src/repro/core/compile.py; then \
	    echo "per-row closure in core/compile.py: emit the expression into the step's generated source (_Source.value / .truth)"; \
	    exit 1; fi
	@if grep -rnE '\bfold_log\(' src/repro --include='*.py' \
	    | grep -vE '^src/repro/core/modlog\.py:'; then \
	    echo "fold_log outside core/modlog.py: read the round's entries (entries.folded(db))"; \
	    exit 1; fi
	@if awk 'FNR == 1 { f = 0 } \
	        /^ *def (_define|define_script|lint_definition)\(/ { f = 1; next } \
	        /^ *(def|class) |^[^ #)]/ { f = 0 } \
	        f { print FILENAME ":" FNR ": " $$0 }' \
	    src/repro/core/engine.py src/repro/analysis/cost.py src/repro/baselines/*.py \
	    | grep -E '\b(evaluate_plan|materialize|define_script|infer_script_cost)\(' \
	    | grep -vE '\bmaterialize\([^)]*, stats\)|\bdefine_script\(.*\bstats[,)]|\binfer_script_cost\(.*\bstats=stats\)'; then \
	    echo "definition-time evaluation outside the definition's PlanStats: read stats.rows(node) / materialize(node, db, name, stats) / define_script(name, plan, stats, ...) / infer_script_cost(generated, stats.db, stats=stats)"; \
	    exit 1; fi
	@if grep -nE '^\s*(from\s+(\.\.core|repro\.core)\b|import\s+repro\.core\b|from\s+(\.\.|repro)\s+import\s.*\bcore\b)' \
	    src/repro/algebra/evaluate.py; then \
	    echo "algebra/evaluate.py imports repro.core: the interpretive reference must not share the generated operators' code"; \
	    exit 1; fi
	@if grep -rnP '\bevaluate_plan\((?:[^(),]|(?<p>\((?:[^()]|(?&p))*\)))*,(?:[^(),]|(?&p))*,' \
	    src/repro tests benchmarks --include='*.py'; then \
	    echo "evaluate_plan with a third argument: it is the memo-free reference; a definition reads stats.rows(node)"; \
	    exit 1; fi
	@if grep -rnE '\binfer_script_cost\(' src/repro --include='*.py' \
	    | grep -vE '^src/repro/analysis/cost\.py:'; then \
	    echo "infer_script_cost outside analysis/cost.py: a script is priced by its definition (define_script); read generated.cost_model"; \
	    exit 1; fi
	@if grep -rnE '\bPlanStats\(' src/repro --include='*.py' \
	    | grep -vE '^src/repro/(core/engine|analysis/cost)\.py:'; then \
	    echo "PlanStats built outside MaintenanceEngine.define_view and analysis/cost.py: one per definition"; \
	    exit 1; fi
	@if grep -nE 'except +(\(.*)?Exception\b' src/repro/core/generator.py \
	    src/repro/core/engine.py src/repro/analysis/sharing.py src/repro/analysis/cost.py; then \
	    echo "swallowed exception: a script the cost walker cannot price fails its definition and its lint"; \
	    exit 1; fi
	@if grep -rnwE 'price_script|COST_MODEL_FALLBACKS|COST_SELECT_FALLBACKS|cost_model_fallbacks|cost_select_fallbacks' \
	    src --include='*.py'; then \
	    echo "a pricing fallback in src/: every i-diff script is priced, or its definition raises"; \
	    exit 1; fi
	@if grep -nE '^\s*(from\s+(\.\.|repro\.)(algebra\.(delta_eval|evaluate)|expr\.eval)\b|import\s+repro\.(algebra\.(delta_eval|evaluate)|expr\.eval)\b|from\s+(\.\.|repro\.)expr\s+import\s.*\b(evaluate|matches)\b)' \
	    src/repro/baselines/tuple_ivm.py; then \
	    echo "baselines/tuple_ivm.py evaluates nothing itself: it is IdIvmEngine with the tuple rule set (core/rules/tdiff.py)"; \
	    exit 1; fi
	@if grep -rnE '\bfetch\(' src/repro --include='*.py' \
	    | grep -vE '^src/repro/(algebra/delta_eval|core/ir_exec|baselines/sdbt)\.py:'; then \
	    echo "fetch outside algebra/delta_eval.py, core/ir_exec.py and baselines/sdbt.py: a script reads subviews through its view's generated readers (core.compile.SubviewReaders), the interpreter through IrContext.resolve_subview"; \
	    exit 1; fi
	@if grep -rnE '\bresolve_subview\(' src/repro --include='*.py' \
	    | grep -vE '^src/repro/core/ir_exec\.py:'; then \
	    echo "resolve_subview outside core/ir_exec.py (the interp backend): a round reads subviews through its view's generated readers"; \
	    exit 1; fi
	@if grep -nE '\b(apply_operator|eval_expr|Bindings)\b|_(fallbacks|FALLBACKS)\b|^\s*(from|import)\s+\S*\bdelta_eval\b|^\s*from\s+\S*\bexpr(\.eval)?\s+import\s.*\bevaluate\b|^\s+evaluate( +as +\w+)?,?\s*$$' \
	    src/repro/core/compile.py; then \
	    echo "core/compile.py reaches the interpreter (algebra.delta_eval, repro.expr evaluate, apply_operator) or counts a fallback: a form the emitter cannot lower raises at definition"; \
	    exit 1; fi
	@if [ "$$(grep -cE '^(def|class) |^[A-Za-z_]+ *=' src/repro/baselines/tuple_ivm.py)" != 1 ] \
	    || grep -rnE '^(def|class) +(_join_delta|_semi_like_delta|repair_updates|TupleJoinStep)\b|^TUPLE_RULES\b' \
	    src/repro --include='*.py' | grep -vE '^src/repro/core/rules/'; then \
	    echo "tuple rule bodies live under core/rules/ (tdiff.py); baselines/tuple_ivm.py holds the engine class only"; \
	    exit 1; fi
	@if grep -nE 'class +\w*Histogram' src/repro/obs/metrics.py; then \
	    echo "histogram class in obs/metrics.py: every registry histogram is obs/hist.py's log histogram"; \
	    exit 1; fi
	@if grep -rn 'worst_ratio' src/repro --include='*.py'; then \
	    echo "a stored worst drift ratio: /metrics exports every EWMA (repro_drift_ewma), repro top takes the worst"; \
	    exit 1; fi
	@if grep -n '"summary"' src/repro/obs/serve.py | grep -vE '_PROM_TYPES *='; then \
	    echo "obs/serve.py emits a summary family: every histogram is a log histogram (native Prometheus histogram)"; \
	    exit 1; fi
	@if grep -n '\.copy(' src/repro/baselines/sdbt.py; then \
	    echo "baselines/sdbt.py copies: the hybrid state switches table references from the replica to the live tables"; \
	    exit 1; fi
	@if grep -rnw 'threading' src/repro --include='*.py' \
	    | grep -vE '^src/repro/obs/(live|smoke)\.py:'; then \
	    echo "threading outside obs/live.py and obs/smoke.py: one thread writes the engine's state, so nothing takes a lock or keeps per-thread state"; \
	    exit 1; fi
	@if grep -rn 'ConcurrentLogHistogram' src; then \
	    echo "ConcurrentLogHistogram in src/: every registry histogram is one LogHistogram, written by one thread"; \
	    exit 1; fi
	@if grep -rn 'reads_pre_state' src; then \
	    echo "reads_pre_state in src/: a view declares the tables it reads in Input_pre (Step.pre_tables); recomputation declares none"; \
	    exit 1; fi
	@if grep -rnwE '_prepare_view|prepared' src --include='*.py' \
	    || grep -nw 'written' src/repro/core/script.py; then \
	    echo "_prepare_view, a prepared argument or LiveSlice.written in src/: a view-round journals the tables its view owns (view.written_tables) around _maintain_view"; \
	    exit 1; fi
	@if awk 'FNR == 1 { f = 0 } /^def _reconstruct_pre\(/ { f = 1; next } /^(def|class) / { f = 0 } \
	        !f && /(^|[^A-Za-z0-9_])([A-Za-z0-9_]*(db|database)[A-Za-z0-9_]*|live|pre|replica)\.copy\(/ \
	        { print FILENAME ":" FNR ": " $$0 }' $$(find src/repro -name '*.py') | grep .; then \
	    echo "Database.copy outside _reconstruct_pre (core/engine.py): the Input_pre replica is the one copy, of the tables the views declare"; \
	    exit 1; fi
	@if [ "$$(grep -rlE 'def +_analyze_(ir|step)\b' src --include='*.py')" != "src/repro/shard/router.py" ] \
	    || grep -rnE 'route_override|force_route|ProvenanceTracker' src --include='*.py'; then \
	    echo "a second anchor-provenance walk or a forced route in src/: the router's veto walk (shard/router.py _analyze_step / _analyze_ir) is the one static proof of shard disjointness"; \
	    exit 1; fi
	@if grep -rnE 'ShardRoutingCounters|shard_check|SH40[12]' src --include='*.py' \
	    || grep -rnE '\.counters *=([^=]|$$)' src --include='*.py' | grep -vE '^src/repro/storage/'; then \
	    echo "a second counter set or a routability lint in src/: a database has one CounterSet, assigned in src/repro/storage/ alone; a shard is measured by the delta it adds there"; \
	    exit 1; fi
	@if grep -rnE 'register_pass|register_catalog_pass|pass_versions|SHARING_PASS_VERSION|CACHE_SCHEMA_VERSION|FINGERPRINT_VERSION|SHARE_KEY_VERSION|_LINT_KNOBS|--no-cache|args\.no_cache' \
	    src --include='*.py'; then \
	    echo "a hand-kept cache version or a default lint cache in src/: an analysis cache file is valid for the code that wrote it (analysis/cache.py code_digest), and repro lint caches only with --cache-dir"; \
	    exit 1; fi
	@if grep -rnE '\bScriptGenerator\(' src/repro --include='*.py' \
	    | grep -vE '^src/repro/analysis/cost\.py:'; then \
	    echo "ScriptGenerator built outside analysis/cost.py: define through define_script / lint_definition, the one pipeline that prices and selects the script a view ships"; \
	    exit 1; fi
	@if grep -rnwE 'StaticAnalysisError|check_generated|ShardRaceError' src --include='*.py' \
	    || grep -nE '\bstrict\b *(:|=[^=])|\.strict\b' \
	        src/repro/core/engine.py src/repro/baselines/tuple_ivm.py src/repro/analysis/cost.py; then \
	    echo "a strict mode in src/: a stale replica is rebuilt and counted (engine.prestate_rebuilds), a failed pricing fails the definition, the analyzer gate is lint_definition, and the race detector records overlaps"; \
	    exit 1; fi
	@if ! $(PYTHON) tools/check_round_metrics.py src/repro; then \
	    echo "a metric looked up by name on a round's hot path: hold a metrics.Handle (obs/metrics.py)"; \
	    exit 1; fi
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks; \
	else echo "ruff not installed; skipping"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed; skipping"; fi

# Differential fuzz: every strategy vs the recompute oracle.  Divergent
# cases are shrunk and saved into tests/regressions/; non-zero exit.
FUZZ_SEED ?= 0
FUZZ_CASES ?= 100
fuzz:
	$(PYTHON) -m repro crosscheck --seed $(FUZZ_SEED) --cases $(FUZZ_CASES)
