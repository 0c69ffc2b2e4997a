"""End-to-end maintenance benchmark: the one command.

Three ways to call it, all from the repository root::

    # the whole suite: every workload in its own fresh subprocess,
    # traced, every metric printed by name and unit, result JSON written
    python benchmarks/e2e/run.py --seed 1 --out results.json [--reps 3] [--smoke]

    # one workload, one JSON result line last on stdout (BENCHMARK.json)
    python benchmarks/e2e/run.py --workload NAME --seed 1 --seconds 20 --trace 0

    # two result files against the bounds in BENCHMARK.json
    python benchmarks/e2e/run.py --compare A.json B.json

Every workload process runs with ``PYTHONHASHSEED=0`` in its own process
group under a timeout, so a hung shard worker is killed with it and
counted as failed instead of hanging the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"
if not (SRC / "repro").is_dir():
    # A directory holding only the benchmark has nothing to measure.
    sys.exit(f"benchmarks/e2e: the program under test is missing ({SRC}/repro)")
sys.path.insert(0, str(SRC))

from harness import (  # noqa: E402
    END_TO_END_UNITS, LAYER_UNITS, SETUPS, UNGATED, run_workload,
)
from workloads import DEFAULT_SECONDS, WORKLOADS  # noqa: E402

#: A workload's whole run is sized well under 30 s; anything near this
#: is a hang.  Must stay under the 180 s the benchmark contract allows.
TIMEOUT_S = 150
PLAIN, SHARDED = "devices_bigdiff_d400", "devices_sharded_p2_d400"
GATED = [name for name in END_TO_END_UNITS if name not in UNGATED]
#: --compare also judges the ungated tail latency, at the widest bound.
DIAGNOSTIC_BOUNDS = [
    {"name": "round_ms_p95", "unit": "ms", "better": "lower", "bound": 0.25},
]


# ----------------------------------------------------------------------
# one workload, isolated
# ----------------------------------------------------------------------
def run_isolated(name, seed, seconds, trace, smoke=False, spans_path=None) -> dict:
    """Run one workload in a fresh interpreter and return its result doc.

    A timeout or a crash yields a doc whose every planned round failed.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env,
        cwd=REPO_ROOT, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
        problem = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        problem = f"timed out after {TIMEOUT_S} s"
        stdout = ""
    finally:
        # The child leads its own process group: this also reaps shard
        # workers that outlived it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if problem is None:
        return json.loads(stdout.strip().splitlines()[-1])
    workload = WORKLOADS[name].sized(seconds, smoke)
    planned = (
        SETUPS * workload.warmup_rounds + workload.rounds
        + (workload.traced_rounds if trace else 0)
        + len(workload.views) * (3 if trace else 2)
    )
    return {
        "workload": name, "seed": seed, "error": problem,
        "attempted": planned, "failed": planned, "failures": [problem],
        "end_to_end": {"failed_share": 1.0},
    }


def child_main(args) -> int:
    workload = WORKLOADS[args.workload].sized(args.seconds, args.smoke)
    result = run_workload(workload, args.seed, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


def driver_main(args) -> int:
    """The BENCHMARK.json contract: one result object, last on stdout."""
    result = run_isolated(args.workload, args.seed, args.seconds, args.trace)
    if "error" in result:
        print(f"{args.workload}: {result['error']}", file=sys.stderr)
        return 1
    if args.trace:
        # The result line carries numbers only: a layer whose probes are
        # all gone reads 0 here and is counted in probes_missing.
        metrics = {name: result["layers"][name] or 0.0 for name in LAYER_UNITS}
        metrics["round_ms_p95"] = result["end_to_end"]["round_ms_p95"]
    else:
        metrics = {name: result["end_to_end"][name] for name in GATED}
    units = {**END_TO_END_UNITS, **LAYER_UNITS}
    for failure in result["failures"]:
        print(f"{args.workload}: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if result["failed"] == 0 else 1


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "null"
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def print_result(result: dict) -> None:
    name = result["workload"]
    print(f"\n== {name}")
    if "error" in result:
        print(f"   FAILED: {result['error']}")
        return
    rounds = result["rounds"]
    print(f"   rounds: {rounds['warmup']} warm-up, {rounds['timed']} timed, "
          f"{rounds['traced']} traced; {result['modifications']} modifications; "
          f"input_digest {result['input_digest'][:16]}")
    for metric, unit in END_TO_END_UNITS.items():
        print(f"   {metric:<28} {_fmt(result['end_to_end'][metric]):>14} {unit}")
    for metric, value in result["diagnostics"].items():
        if not isinstance(value, list):
            print(f"   {metric:<28} {_fmt(value):>14} (diagnostic)")
    for failure in result["failures"]:
        print(f"   FAILURE: {failure}")
    if "layers" not in result:
        return
    print("   -- layers (means over traced rounds)")
    for metric, unit in LAYER_UNITS.items():
        print(f"   {metric:<28} {_fmt(result['layers'][metric]):>14} {unit}")
    if result["probes_missing"]:
        print(f"   probes_missing: {', '.join(result['probes_missing'])}")
    print("   -- share of engine.round_ms (self times; they sum to the round)")
    for row in result["share_table"]:
        if row["ms"]:
            print(f"   {row['layer']:<38} {row['ms']:>10.4f} ms {row['share']:>7.1%}")


def _spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def summarize(runs: list[dict]) -> dict:
    """Per workload: median/min/max over the repetitions of every metric."""
    summary = {}
    for name in runs[0]:
        docs = [run[name] for run in runs]
        entry = {"input_digest": docs[0].get("input_digest")}
        for section in ("end_to_end", "layers"):
            keys = [k for k in docs[0].get(section, {})
                    if all(doc.get(section, {}).get(k) is not None for doc in docs)]
            entry[section] = {k: _spread([doc[section][k] for doc in docs]) for k in keys}
        # One seed must give one input and one access count, every time.
        counts = entry["end_to_end"].get("accesses_per_mod", {"min": 0, "max": 0})
        entry["repeats_exactly"] = (
            len({doc.get("input_digest") for doc in docs}) == 1
            and counts["min"] == counts["max"]
        )
        summary[name] = entry
    return summary


def _provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "PYTHONHASHSEED": "0",
    }


def suite_main(args) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            sys.exit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    runs = []
    for rep in range(args.reps):
        if args.reps > 1:
            print(f"\n#### repetition {rep + 1} of {args.reps}")
        run = {}
        for name in names:
            spans = f"{args.out}.{name}.spans.jsonl" if args.out else None
            run[name] = run_isolated(
                name, args.seed, args.seconds, True, args.smoke, spans
            )
            print_result(run[name])
        runs.append(run)

    summary = summarize(runs)
    print("\n== summary")
    ok = all(doc["failed"] == 0 for run in runs for doc in run.values())
    for name, entry in summary.items():
        if not entry["repeats_exactly"]:
            ok = False
            print(f"   {name}: input_digest or accesses_per_mod differ between repetitions")
    doc = {
        "schema": 1,
        "provenance": _provenance(),
        "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "reps": args.reps,
        "summary": summary, "runs": runs,
    }
    if PLAIN in summary and SHARDED in summary:
        plain, sharded = summary[PLAIN], summary[SHARDED]
        same_input = plain["input_digest"] == sharded["input_digest"]
        same_counts = (
            plain["end_to_end"].get("accesses_per_mod")
            == sharded["end_to_end"].get("accesses_per_mod")
        )
        doc["count_parity_ok"] = bool(same_input and same_counts)
        ok = ok and doc["count_parity_ok"]
        print(f"   count_parity_ok: {doc['count_parity_ok']} "
              f"(same input_digest: {same_input}, same accesses_per_mod: {same_counts})")
        if "round_ms_p50" in sharded["end_to_end"] and "round_ms_p50" in plain["end_to_end"]:
            speedup = (plain["end_to_end"]["round_ms_p50"]["median"]
                       / sharded["end_to_end"]["round_ms_p50"]["median"])
            doc["shard.speedup_vs_plain"] = {
                "value": speedup, "unit": "ratio",
                "base": f"round_ms_p50({PLAIN}) / round_ms_p50({SHARDED})",
            }
            print(f"   shard.speedup_vs_plain: {speedup:.3f} ratio "
                  f"= {doc['shard.speedup_vs_plain']['base']}")
    if args.reps > 1:
        print(f"   median [min .. max] over {args.reps} repetitions")
        for name, entry in summary.items():
            for metric, s in entry["end_to_end"].items():
                print(f"   {name:<26} {metric:<18} {_fmt(s['median']):>14} "
                      f"[{_fmt(s['min'])} .. {_fmt(s['max'])}] {END_TO_END_UNITS[metric]}")
    doc["ok"] = ok
    print(f"   no failures, counts repeat exactly, parity holds: {ok}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"   wrote {args.out}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# comparing two result files
# ----------------------------------------------------------------------
def compare_main(path_a: str, path_b: str) -> int:
    """B against A: per workload x end-to-end metric, the relative
    worsening against the metric's bound.  ``unresolved`` when either
    side's own run-to-run spread exceeds the bound or the inputs differ."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(path_a).read_text())["summary"]
    b = json.loads(Path(path_b).read_text())["summary"]
    worse = False
    for name in a:
        if name not in b:
            continue
        same_input = a[name]["input_digest"] == b[name]["input_digest"]
        print(f"\n{name}  (input_digest {'same' if same_input else 'DIFFERENT'})")
        for metric in spec["end_to_end"] + DIAGNOSTIC_BOUNDS:
            key, bound = metric["name"], metric["bound"]
            sa, sb = a[name]["end_to_end"].get(key), b[name]["end_to_end"].get(key)
            if sa is None or sb is None:
                print(f"   {key:<18} missing -> unresolved")
                continue
            change = (sb["median"] - sa["median"]) / sa["median"]
            worsening = change if metric["better"] == "lower" else -change
            spread = max((s["max"] - s["min"]) / s["median"] for s in (sa, sb))
            if not same_input or spread > bound:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "worse"
                worse = True
            else:
                verdict = "ok"
            print(f"   {key:<18} {_fmt(sa['median']):>12} -> {_fmt(sb['median']):>12} "
                  f"{metric['unit']:<9} worsening {worsening:+7.2%}  spread {spread:6.2%}  "
                  f"bound {bound:4.0%}  {verdict}")
        failed = b[name]["end_to_end"].get("failed_share", {"median": 1.0})["median"]
        if failed > 0:
            worse = True
        print(f"   {'failed_share':<18} {failed}  {'ok' if failed == 0 else 'worse'}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run this one workload and print one JSON result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="run length the fixed round counts are scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--out", help="suite: result JSON (spans go beside it)")
    parser.add_argument("--reps", type=int, default=1,
                        help="suite: repetitions; median, min and max are reported")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes and rounds divided by 20")
    parser.add_argument("--workloads", help="suite: comma-separated subset")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare_main(*args.compare)
    if args.child:
        return child_main(args)
    if args.workload:
        return driver_main(args)
    return suite_main(args)


# The spawn start method of the shard workers re-imports this module.
if __name__ == "__main__":
    sys.exit(main())
