PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-sharded smoke smoke-obs bench bench-compare perf-gate fuzz \
	lint lint-catalog lint-static

test:
	$(PYTHON) -m pytest -x -q

# Equivalence tests at an explicit shard count and backend set (the CI
# matrix legs): REPRO_SHARDS=1,4 REPRO_BACKEND=process make test-sharded
# REPRO_RACE_CHECK=strict arms the dynamic write-set race detector on
# every engine the suite builds (overlaps raise ShardRaceError).
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
	$(PYTHON) -m repro demo --shards 4
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
    benchmarks/bench_catalog_lint.py
perf-gate:
	REPRO_PERF_GATE=1 $(PYTHON) -m pytest $(PERF_GATE_BENCHES) --benchmark-disable -q

# Domain lint: the repro.analysis static verifier over every shipped
# workload view.  Exits non-zero on error-severity diagnostics.
lint:
	$(PYTHON) -m repro lint

# Catalog-scale lint: the deterministic thousand-view catalog through
# the incremental analysis cache (.repro-cache/) and the catalog-scope
# sharing pass.  A second run is warm — CI uploads the cache artifact.
lint-catalog:
	$(PYTHON) -m repro lint --catalog

# Conventional static checks (ruff + mypy, configured in pyproject).
# Both are optional in the dev container; absent tools are skipped so
# the target stays green locally and strict in CI (which installs them).
# The grep guards always run: there is one maintenance round loop
# (core/engine.py), and the crosscheck oracle's private log is the only
# other place allowed to drain one; and there is one physical write
# path (storage/table.py) — only it and the crosscheck invariants that
# audit it may name another object's rows dict or index map; and APPLY
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
# `materialize(…, stats)`, `define_script(…, stats, …)`, `price_script(…,
# stats, …)` — so no sub-plan is derived twice and every one runs the
# generated plan operators; and the interpretive reference stays
# independent of them: `evaluate_plan(node, db)` takes no third argument
# (no memo) and algebra/evaluate.py imports nothing from repro.core (the
# code generator lives there); and a script is priced once: `infer_script_cost` is called only
# in analysis/cost.py (by `price_script`, the one guarded inference), a
# `PlanStats` is built only there and by `MaintenanceEngine.define_view`
# (core/engine.py), and the generator, the engine and the sharing pass
# swallow no exception.
lint-static:
	@if grep -rnE 'def maintain\b|log\.take\(\)' src/repro --include='*.py' \
	    | grep -vE '^src/repro/(core/engine\.py:|crosscheck/runner\.py:[0-9]+: *log\.take\(\)$$)'; then \
	    echo "round loop outside core/engine.py: use MaintenanceEngine.maintain"; \
	    exit 1; fi
	@if grep -rnE '\._(rows|indexes)\b' src/repro --include='*.py' \
	    | grep -vE '^src/repro/(storage/table|crosscheck/invariants)\.py:|\bself\._rows\b'; then \
	    echo "Table internals outside storage/table.py: use its public readers and writers"; \
	    exit 1; fi
	@if grep -nE '\b(write_at|delete_at|insert_checked|locate)\(' src/repro/core/apply.py; then \
	    echo "per-row Table write in core/apply.py: use update_many / insert_many / delete_many"; \
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
	    | grep -E '\b(evaluate_plan|materialize|define_script|price_script)\(' \
	    | grep -vE '\bmaterialize\([^)]*, stats\)|\b(define_script|price_script)\(.*\bstats[,)]'; then \
	    echo "definition-time evaluation outside the definition's PlanStats: read stats.rows(node) / materialize(node, db, name, stats) / define_script(name, plan, stats, ...)"; \
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
	    echo "infer_script_cost outside analysis/cost.py: price through price_script (or read generated.cost_model)"; \
	    exit 1; fi
	@if grep -rnE '\bPlanStats\(' src/repro --include='*.py' \
	    | grep -vE '^src/repro/(core/engine|analysis/cost)\.py:'; then \
	    echo "PlanStats built outside MaintenanceEngine.define_view and analysis/cost.py: one per definition"; \
	    exit 1; fi
	@if grep -nE 'except +(\(.*)?Exception\b' src/repro/core/generator.py \
	    src/repro/core/engine.py src/repro/analysis/sharing.py; then \
	    echo "swallowed exception: a pricing failure is counted by analysis.cost.price_script, nothing else guards"; \
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
