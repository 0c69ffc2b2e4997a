"""Smoke tests of the end-to-end benchmark itself (``make bench``).

``run.py --smoke`` runs every workload at 1/20 scale in a few seconds;
these tests pin the benchmark's contract — every metric present by name
and unit, no failures, exact repeatability of counts and inputs — not
any performance number.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
for path in (str(REPO_ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostref  # noqa: E402
import probes  # noqa: E402
from harness import (  # noqa: E402
    END_TO_END_UNITS, LAYER_UNITS, UNGATED, block_factors, quiet_blocks,
)
from loadgen import input_digest, log_batch  # noqa: E402
from workloads import DEFAULT_SECONDS, GATED, WORKLOADS  # noqa: E402


def _smoke(out: Path, *extra: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *extra],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    first, stdout = _smoke(tmp / "a.json", "--seed", "1")
    second, _ = _smoke(tmp / "b.json", "--seed", "1")
    return first, second, stdout, tmp


def test_every_metric_is_reported_by_name_and_unit(smoke_runs):
    first, _, stdout, tmp = smoke_runs
    sections = stdout.split("\n== ")[1:]
    assert [s.split("\n", 1)[0] for s in sections[:-1]] == list(WORKLOADS)
    for name, section in zip(WORKLOADS, sections):
        lines = [line.split() for line in section.splitlines()]
        for metric, unit in {**END_TO_END_UNITS, **LAYER_UNITS}.items():
            assert any(
                line[0] == metric and line[-1] == unit for line in lines if line
            ), f"{name}: {metric} [{unit}] not printed"
        result = first["runs"][0][name]
        assert set(result["end_to_end"]) == set(END_TO_END_UNITS)
        assert all(key in LAYER_UNITS for key in result["raw"])
        assert set(result["layers"]) == set(LAYER_UNITS)
        assert result["probes_missing"] == []
        assert all(v is not None for v in result["layers"].values())
        assert (tmp / f"a.json.{name}.spans.jsonl").stat().st_size > 0


def test_no_failures_and_count_parity(smoke_runs):
    first, _, _, _ = smoke_runs
    assert first["ok"] and first["count_parity_ok"]
    for result in first["runs"][0].values():
        assert result["end_to_end"]["failed_share"] == 0
        assert result["failed"] == 0 and result["attempted"] > 0
    assert first["shard.speedup_vs_plain"]["base"].startswith("round_ms_p50(")


def test_layer_self_times_sum_to_the_round(smoke_runs):
    first, _, _, _ = smoke_runs
    for result in first["runs"][0].values():
        total = sum(row["ms"] for row in result["share_table"])
        assert total == pytest.approx(result["layers"]["engine.round_ms"], rel=1e-6)


def test_same_seed_repeats_counts_and_inputs_exactly(smoke_runs):
    first, second, _, _ = smoke_runs
    for name in WORKLOADS:
        a, b = first["runs"][0][name], second["runs"][0][name]
        assert a["input_digest"] == b["input_digest"]
        assert a["end_to_end"]["accesses_per_mod"] == b["end_to_end"]["accesses_per_mod"]


def test_another_seed_changes_the_input(smoke_runs, tmp_path):
    first, _, _, _ = smoke_runs
    name = "devices_churn_m98"
    other, _ = _smoke(tmp_path / "c.json", "--seed", "2", "--workloads", name)
    assert other["runs"][0][name]["input_digest"] != first["runs"][0][name]["input_digest"]


def test_compare_accepts_a_run_against_itself(smoke_runs):
    tmp = smoke_runs[3]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare",
         str(tmp / "a.json"), str(tmp / "a.json")],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "worse" not in proc.stdout.replace("worsening", "")


def test_benchmark_json_names_the_same_metrics_and_workloads():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == DEFAULT_SECONDS
    # every workload but the three-process one
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert set(WORKLOADS) - set(GATED) == {"devices_sharded_p2_d400"}
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert gated == {k: v for k, v in END_TO_END_UNITS.items() if k not in UNGATED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **LAYER_UNITS, "round_ms_p95": END_TO_END_UNITS["round_ms_p95"],
    }


# ----------------------------------------------------------------------
# host normalisation
# ----------------------------------------------------------------------
def test_every_block_gets_the_factor_of_its_own_slices():
    nominal = hostref.NOMINAL_S
    # 40 samples -> 4 blocks of 10; a slice before every 5th sample; the
    # host runs twice slower during the third block.
    slices = [(at, nominal * (2 if 20 <= at < 30 else 1)) for at in range(0, 40, 5)]
    block_of, factors = block_factors(40, slices)
    assert block_of == [i // 10 for i in range(40)]
    assert factors == pytest.approx([1, 1, 2, 1])
    # a block without a slice of its own falls back to the whole run's factor
    _, sparse = block_factors(40, [(0, nominal * 3)])
    assert sparse == pytest.approx([3, 3, 3, 3])
    # a slice taken after the last completed round belongs to the last block
    assert block_factors(10, [(10, nominal)])[0] == [0] * 10


def test_gated_timings_are_read_from_the_quiet_blocks():
    # a quiet run: every block is within 10 % of the quietest
    assert quiet_blocks([1.00, 1.05, 1.09, 1.02, 1.10, 1.01]) == {0, 1, 2, 3, 4, 5}
    # a noisy one: the blocks near the quietest, but never fewer than five
    noisy = [1.9, 1.0, 1.5, 1.05, 1.6, 1.7, 1.2, 1.8, 1.3, 1.08]
    assert quiet_blocks(noisy) == {1, 3, 9, 6, 8}
    # a short run has fewer blocks than that
    assert quiet_blocks([1.4, 1.0]) == {0, 1}


def test_reference_slices_do_not_depend_on_the_seed():
    a, b = hostref.HostRef(), hostref.HostRef()
    assert a._sequences == b._sequences
    assert a.slice() > 0


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def _drive(workload, seed: int, probed: bool):
    """Run the warm-up-sized stream once; returns what must not depend
    on the probes: digest, per-round access counts, view contents."""
    db = workload.build_database(seed)
    batches = workload.generate_rounds(db, seed, 12)
    engine = workload.make_engine(db)
    for name, plan in workload.view_plans(db, seed).items():
        engine.define_view(name, plan)
    tracer = probes.Tracer()
    costs = []

    def rounds():
        for batch in batches:
            log_batch(engine.log, batch)
            with tracer.span(probes.ROUND):
                reports = engine.maintain()
            costs.append({name: r.total_cost for name, r in reports.items()})

    if probed:
        with probes.installed(tracer) as missing:
            rounds()
        assert missing == []
    else:
        rounds()
    views = {
        name: sorted(view.table.rows_uncounted()) for name, view in engine.views.items()
    }
    return input_digest(batches), costs, views, tracer


def test_probes_do_not_change_counts_views_or_input():
    workload = WORKLOADS["devices_churn_m98"].sized(DEFAULT_SECONDS, smoke=True)
    plain = _drive(workload, 3, probed=False)
    probed = _drive(workload, 3, probed=True)
    assert plain[:3] == probed[:3]
    inside, outside = probed[3].layer_totals()
    for layer in ("engine.prestate", "storage.copy", "modlog.populate",
                  "script.exec", "apply", "obs.finish", "obs.metric_lookup"):
        assert inside[layer]["calls"] > 0, layer
    for layer in ("modlog.log_insert", "modlog.log_update", "modlog.log_delete"):
        assert outside[layer]["calls"] > 0, layer
    assert sum(b["self_ms"] for b in inside.values()) == pytest.approx(
        inside[probes.ROUND]["ms"], rel=1e-9
    )
    # The unprobed run recorded only the harness's own round spans.
    assert set(plain[3].layer_totals()[0]) == {probes.ROUND}


def test_probes_restore_every_binding_and_survive_missing_targets():
    import repro.baselines.sdbt as sdbt
    import repro.core.engine as engine_module
    import repro.core.sharded as sharded

    original = engine_module._reconstruct_pre
    specs = probes.PROBES + (
        probes.ProbeSpec("gone.function", "repro.core.engine", "no_such_function"),
        probes.ProbeSpec("gone.method", "repro.core.engine", "IdIvmEngine.no_such"),
        probes.ProbeSpec("gone.module", "repro.no_such_module", "f"),
    )
    with probes.installed(probes.Tracer(), specs) as missing:
        assert missing == [
            "repro.core.engine:no_such_function",
            "repro.core.engine:IdIvmEngine.no_such",
            "repro.no_such_module:f",
        ]
        # rebound in every module that imported the callable by name
        for module in (engine_module, sharded, sdbt):
            assert module._reconstruct_pre is not original
            assert module._reconstruct_pre.__wrapped__ is original
    for module in (engine_module, sharded, sdbt):
        assert module._reconstruct_pre is original
