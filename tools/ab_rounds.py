"""Interleaved A/B rounds: two revisions of ``repro`` in one process.

    python tools/ab_rounds.py --base <rev-or-dir> [--workloads a,b]
                              [--seed 1] [--seconds 20] [--smoke] [--gc]

(``make ab-rounds BASE=<rev> WORKLOADS=a,b``.)  Loads the package of
revision BASE (a detached ``git worktree``, as
``benchmarks/compare_revisions.py`` gets its tree, or a directory that
already holds a checkout) and the package of this tree side by side, under
the names ``repro_a`` and ``repro_b``.  For each workload of the e2e suite
(``benchmarks/e2e/workloads.py``) both sides build the same database and
views and are fed the same operation stream; every round logs the batch
and runs ``maintain()`` on both, A first on even rounds and B first on
odd ones, so that a drifting host is charged to both sides alike.

Every round's per-view, per-phase access counts must be equal on the two
sides — the tool exits 1 otherwise.  It prints, per workload, each side's
median round (``maintain()`` only, ms) and median log time per
modification (µs, what the e2e suite's ``log_us_per_mod`` gates), and
the paired ratios B / A, their quartiles and median, of three times per
round: ``maintain()``, the log, and log + ``maintain()`` (what
``mods_per_s`` measures).  A ratio below 1 means B — this tree — is
faster.

Known biases: two packages in one process are not free of order
effects.  The log columns of the two sides differ by up to ~5 %, either
way, on one tree (2-CPU container), so do not read a log difference
that small as a change.  The collector is shared: garbage one side
makes triggers collections inside the other side's rounds, so absolute
times beside another tree read higher than beside itself, and the ratio
of a change that allocates less is understated.  The round ratio of a
tree against itself is 0.98–1.00, quartiles about 0.95–1.05.

``--gc`` shows the allocation the shared collector hides: after the
interleaved pass of a workload, each side runs alone over the same
stream, from a collected heap, and the tool prints its generation 0 / 1
/ 2 collections per timed round (a ``gc.callbacks`` tally).  Those
counts are a property of what the code allocates, not of the host: they
repeat exactly from run to run, and a tree against itself reads the
same on both sides.

Timings are wall clock on whatever host runs it, never gated: the tool
is a measuring instrument for a change, the gated numbers come from
``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parents[1]
E2E = REPO_ROOT / "benchmarks" / "e2e"


def load_package(tree: Path, alias: str):
    """The ``repro`` package of *tree* imported as *alias* (its modules
    import each other relatively, so two copies do not mix)."""
    package = tree / "src" / "repro"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One revision's database, engine and views for one workload."""

    def __init__(self, pkg, workload, seed: int):
        from workloads import FANOUT

        wl = importlib.import_module(f"{pkg.__name__}.workloads")
        if workload.family == "devices":
            config = wl.DevicesConfig(
                n_parts=workload.n_rows, n_devices=workload.n_rows,
                diff_size=workload.batch.updates, fanout=FANOUT, seed=seed,
            )
            self.db = wl.build_devices_database(config)
            builders = {"V": wl.build_flat_view, "Vagg": wl.build_aggregate_view}
            plans = {name: builders[name](self.db, config) for name in workload.views}
        else:
            scale = workload.n_rows / 1_000
            config = wl.BsmaConfig(
                n_users=workload.n_rows, n_tweets=int(4_000 * scale),
                n_events=max(5, int(50 * scale)), seed=seed,
            )
            self.db = wl.build_bsma_database(config)
            plans = {name: wl.BSMA_QUERIES[name](self.db, config) for name in workload.views}
        self.engine = pkg.IdIvmEngine(self.db, exec_backend="compiled")
        for name, plan in plans.items():
            self.engine.define_view(name, plan)
        self.round_s: list[float] = []
        self.log_s: list[float] = []
        self.log_per_mod_s: list[float] = []

    def collections(self, batches, warmup: int) -> tuple[float, ...]:
        """Run *batches* alone, from a collected heap: the collector's
        runs per timed round, per generation."""
        runs = [0, 0, 0]

        def tally(phase: str, info: dict) -> None:
            if phase == "start" and counting:
                runs[info["generation"]] += 1

        counting = False
        gc.collect()
        gc.callbacks.append(tally)
        try:
            for i, batch in enumerate(batches):
                counting = i >= warmup
                self.round(batch, timed=False)
        finally:
            gc.callbacks.remove(tally)
        timed = max(len(batches) - warmup, 1)
        return tuple(n / timed for n in runs)

    def round(self, batch, timed: bool) -> dict:
        """Log *batch* and maintain; the round's counts per view and phase."""
        from loadgen import log_batch

        t0 = perf_counter()
        log_batch(self.engine.log, batch)
        t1 = perf_counter()
        reports = self.engine.maintain()
        t2 = perf_counter()
        if timed:
            self.log_s.append(t1 - t0)
            self.round_s.append(t2 - t1)
            self.log_per_mod_s.append((t1 - t0) / max(len(batch), 1))
        return {
            name: {phase: counts.as_dict() for phase, counts in report.phase_counts.items()}
            for name, report in reports.items()
        }

    def total_s(self) -> list[float]:
        """Log + ``maintain()`` per timed round."""
        return [log + maintain for log, maintain in zip(self.log_s, self.round_s)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def paired(times_a: list[float], times_b: list[float]) -> tuple[float, float, float]:
    """Quartiles of the per-round ratios B / A."""
    return quartiles([tb / ta for ta, tb in zip(times_a, times_b) if ta > 0])


def _spread(q: tuple[float, float, float]) -> str:
    return f"{q[0]:>5.3f} {q[1]:>6.3f} {q[2]:>5.3f}"


def run_workload(pkgs, workload, seed: int, collections: bool = False) -> dict:
    """Both sides of one workload, interleaved; raises AssertionError on
    the first round whose counts differ.  With *collections*, each side
    then runs the stream again alone, on a new database, for its
    collector runs per timed round (``a_gc`` / ``b_gc``)."""
    sides = [Side(pkg, workload, seed) for pkg in pkgs]
    batches = workload.generate_rounds(
        sides[1].db, seed, workload.warmup_rounds + workload.rounds
    )
    for i, batch in enumerate(batches):
        timed = i >= workload.warmup_rounds
        order = (0, 1) if i % 2 == 0 else (1, 0)
        counts = {side: sides[side].round(batch, timed) for side in order}
        if counts[0] != counts[1]:
            raise AssertionError(
                f"{workload.name} round {i}: access counts differ\n"
                f"  A: {counts[0]}\n  B: {counts[1]}"
            )
    a, b = sides
    del sides
    gc.collect()
    got = {}
    if collections:
        for name, pkg in zip(("a_gc", "b_gc"), pkgs):
            got[name] = Side(pkg, workload, seed).collections(
                batches, workload.warmup_rounds
            )
            gc.collect()
    return got | {
        "rounds": len(a.round_s),
        "a_round_ms": statistics.median(a.round_s) * 1e3,
        "b_round_ms": statistics.median(b.round_s) * 1e3,
        "a_log_us_per_mod": statistics.median(a.log_per_mod_s) * 1e6,
        "b_log_us_per_mod": statistics.median(b.log_per_mod_s) * 1e6,
        "ratio": paired(a.round_s, b.round_s),
        "log_ratio": paired(a.log_s, b.log_s),
        "total_ratio": paired(a.total_s(), b.total_s()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision (or checkout directory)")
    parser.add_argument("--workloads", help="comma-separated subset (default: the gated four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="the e2e run length the round counts are sized for")
    parser.add_argument("--smoke", action="store_true", help="e2e smoke scale")
    parser.add_argument("--gc", action="store_true",
                        help="also run each side alone and count its collections")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(E2E))
    from workloads import GATED, WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(GATED)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {unknown}; have {sorted(WORKLOADS)}")

    added = not Path(args.base).is_dir()
    workdir = Path(tempfile.mkdtemp(prefix="repro-ab-rounds-")) if added else None
    base_tree = workdir / "base-tree" if added else Path(args.base).resolve()
    if added:
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(base_tree), args.base],
            cwd=REPO_ROOT, check=True,
        )
    try:
        pkgs = (load_package(base_tree, "repro_a"), load_package(REPO_ROOT, "repro_b"))
        print(f"A = {base_tree}\nB = {REPO_ROOT}")
        print(f"{'':<29} {'maintain(): ms, B/A':<36} {'log: us per mod':<19} "
              f"{'log: B/A':<18} {'log + maintain(): B/A'}")
        print(f"{'workload':<22} {'rounds':>6} {'A ms':>8} {'B ms':>8} "
              f"{'q1':>5} {'median':>6} {'q3':>5} {'A us':>9} {'B us':>9} "
              f"{'q1':>5} {'median':>6} {'q3':>5} {'q1':>5} {'median':>6} {'q3':>5}")
        collections = {}
        for name in names:
            workload = WORKLOADS[name].sized(args.seconds, args.smoke)
            if workload.shards:
                print(f"{name:<22} skipped: a sharded workload runs worker processes")
                continue
            got = run_workload(pkgs, workload, args.seed, args.gc)
            print(f"{name:<22} {got['rounds']:>6} {got['a_round_ms']:>8.3f} "
                  f"{got['b_round_ms']:>8.3f} {_spread(got['ratio'])} "
                  f"{got['a_log_us_per_mod']:>9.2f} {got['b_log_us_per_mod']:>9.2f} "
                  f"{_spread(got['log_ratio'])} {_spread(got['total_ratio'])}", flush=True)
            if args.gc:
                collections[name] = (got["a_gc"], got["b_gc"])
        print("access counts equal on every round")
        if collections:
            print("\ncollections per timed round, each side alone (gen0 gen1 gen2)")
            print(f"{'workload':<22} {'A: gen0':>8} {'gen1':>6} {'gen2':>6} "
                  f"{'B: gen0':>8} {'gen1':>6} {'gen2':>6}")
            for name, (a_gc, b_gc) in collections.items():
                print(f"{name:<22} " + " ".join(
                    f"{n:>{w}.3f}" for n, w in zip(a_gc + b_gc, (8, 6, 6, 8, 6, 6))
                ))
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        if added:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(base_tree)],
                cwd=REPO_ROOT, check=False,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
