"""The fixed cost of a maintenance round: bsma at 0 / 1 / 5 / 20 updates.

    python tools/round_intercept.py [--tree DIR]

(``make intercept``.)  Builds the BSMA database of the e2e suite's
``bsma_8views_d5`` workload (1,000 users, 4,000 tweets, 50 events) at
seed 1, defines its eight views on a compiled ``IdIvmEngine`` and, for
each number of user updates per round, times untraced ``maintain()``
over 400 rounds after 20 warm-up rounds.  Every view reads
``users``, so with at least one update every view-round is reached; at
0 updates the log is empty and every view-round is idle.

It prints the ROADMAP's "Where a round's fixed cost is" table — the
median ``maintain()`` and that median per view-round — and the
least-squares line through the rows with updates: the slope per update
and the intercept, the part of a round that does not depend on what
changed.  ``--tree`` measures the ``repro`` package of another checkout
(``DIR/src``), so the same script gives the old and the new table.

Wall clock on whatever host runs it; nothing gates on it.  Each row is
a few hundred milliseconds of rounds, so a busy host moves single runs:
compare the medians of several runs of each tree, alternating.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parents[1]
UPDATES = (0, 1, 5, 20)
ROUNDS, WARMUP, SEED = 400, 20, 1
VIEWS = ("Q7", "Q10", "Q11", "Q15", "Q18", "Q*1", "Q*2", "Q*3")


def median_round_ms(n_updates: int) -> float:
    """Median untraced ``maintain()`` in ms over the timed rounds of
    *n_updates* user updates each, on a freshly built database."""
    from repro.core import IdIvmEngine
    from repro.workloads import BSMA_QUERIES, BsmaConfig, build_bsma_database
    from repro.workloads.bsma import user_update_batch

    config = BsmaConfig(n_users=1_000, n_tweets=4_000, n_events=50, seed=SEED)
    db = build_bsma_database(config)
    engine = IdIvmEngine(db, exec_backend="compiled")
    for name in VIEWS:
        engine.define_view(name, BSMA_QUERIES[name](db, config))
    log = engine.log
    times = []
    for i in range(WARMUP + ROUNDS):
        for key, changes in user_update_batch(db, config, n_updates, round_seed=i):
            log.update("users", key, changes)
        started = perf_counter()
        engine.maintain()
        if i >= WARMUP:
            times.append(perf_counter() - started)
    return statistics.median(times) * 1e3


def fit(points: list[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares ``(slope, intercept)`` of ms against updates."""
    xs, ys = [x for x, _ in points], [y for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x in xs)
    return slope, my - slope * mx


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=REPO_ROOT,
                        help="checkout whose src/repro is measured (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))

    rows = [(n, median_round_ms(n)) for n in UPDATES]
    print(f"bsma_8views, seed {SEED}: untraced maintain() p50 over "
          f"{ROUNDS} rounds after {WARMUP} warm-up rounds")
    print()
    print("| updates / round | `maintain()` p50 | per view-round |")
    print("|---|---|---|")
    for n, ms in rows:
        label = "0 (empty log)" if n == 0 else str(n)
        print(f"| {label} | {ms:.3f} ms | {ms * 1e3 / len(VIEWS):.1f} µs |")
    slope, intercept = fit([(n, ms) for n, ms in rows if n])
    print()
    print(f"slope {slope:.4f} ms per update, intercept {intercept:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
