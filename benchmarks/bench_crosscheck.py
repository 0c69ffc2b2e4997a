"""Fuzzer throughput: cases/second of the differential crosscheck.

Not a paper figure — an infrastructure benchmark.  The crosscheck CI leg
budget is set by this number: every generated case runs the recompute
oracle plus every maintenance strategy over every batch, so cases/second
bounds how much adversarial coverage a nightly run can afford.  The
functional assertion (every case clean) doubles as the fuzz smoke test,
and ``make perf-gate`` pins the strategy list it ran.
"""

from __future__ import annotations

import time
from functools import lru_cache

from conftest import write_bench_json

from repro.crosscheck import ALL_STRATEGIES, generate_case, run_case

SEED = 0
N_CASES = 25


@lru_cache(maxsize=1)
def sweep():
    start = time.perf_counter()
    divergent = []
    for i in range(N_CASES):
        result = run_case(generate_case(SEED, i))
        if not result.ok:
            divergent.append((i, [str(d) for d in result.divergences]))
    # ``wall_seconds`` is a name the perf gate requires and never
    # compares; cases/second is printed, derivable, and not serialised.
    return {
        "seed": SEED,
        "cases": N_CASES,
        "strategies": list(ALL_STRATEGIES),
        "wall_seconds": round(time.perf_counter() - start, 3),
        "divergent": divergent,
    }


def test_crosscheck_throughput(benchmark):
    results = sweep()
    print()
    print("== crosscheck fuzz throughput ==")
    print(
        f"{results['cases']} cases x {len(results['strategies'])} strategies: "
        f"{results['wall_seconds']}s "
        f"({results['cases'] / results['wall_seconds']:.2f} cases/s)"
    )
    assert not results["divergent"], results["divergent"]
    write_bench_json("crosscheck", results)
    # Wall time of one representative case, for pytest-benchmark trends.
    case = generate_case(SEED, 3)
    benchmark(lambda: run_case(case))
