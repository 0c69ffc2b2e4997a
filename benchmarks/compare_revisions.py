"""Paired e2e comparison of a base revision against this tree.

    python benchmarks/compare_revisions.py --base <rev> [--reps 3]

(``make bench-compare BASE=<rev>``.)  Adds a detached ``git worktree`` of
the base revision, runs the end-to-end suite (``benchmarks/e2e/run.py``,
whichever copy each tree holds) on both trees ``--reps`` times in
alternating order — base first on odd repetitions, this tree first on
even ones, so that a drifting host is charged to both sides alike — and
hands the two merged result sets to ``run.py --compare``, whose verdicts
against the bounds of ``BENCHMARK.json`` are the exit code.

Only the frozen ``run.py`` flags are used: every repetition is one
``run.py --seed S --out FILE`` call, and ``run.summarize`` merges the
per-repetition files into the ``summary`` that ``--compare`` reads.
``--base`` may also name a directory that already holds a checkout (a
``git clone`` of the parent, say); it is then used as it is and left alone.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "e2e" / "run.py"


def merge(side: str, paths: list[Path], out: Path) -> None:
    """One result set from single-repetition suite files, in the shape
    ``run.py --reps N --out`` writes (its own ``summarize`` reduces the
    runs to the median / min / max that ``--compare`` reads).
    ``provenance.commit`` is the tree's HEAD; the head side is usually a
    working tree on top of it, so the file also says which *side* it is."""
    sys.path.insert(0, str(REPO_ROOT / RUN.parent))
    from run import summarize

    docs = [json.loads(path.read_text()) for path in paths]
    runs = [run for doc in docs for run in doc["runs"]]
    out.write_text(json.dumps({
        "schema": 1, "side": side, "provenance": docs[0]["provenance"],
        "seed": docs[0]["seed"], "seconds": docs[0]["seconds"],
        "smoke": docs[0]["smoke"], "reps": len(runs),
        "ok": all(doc["ok"] for doc in docs), "summary": summarize(runs), "runs": runs,
    }, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision (or checkout directory)")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", help="where base.json / head.json go (default: a temp dir)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir or tempfile.mkdtemp(prefix="repro-bench-compare-")).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    added = not Path(args.base).is_dir()
    base_tree = out_dir / "base-tree" if added else Path(args.base).resolve()
    if added:
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(base_tree), args.base],
            cwd=REPO_ROOT, check=True,
        )
    trees = {"base": base_tree, "head": REPO_ROOT}
    extra = (["--workloads", args.workloads] if args.workloads else []) + (
        ["--smoke"] if args.smoke else []
    )
    try:
        for rep in range(args.reps):
            for side in ("base", "head") if rep % 2 == 0 else ("head", "base"):
                print(f"\n######## repetition {rep + 1} of {args.reps}: {side}", flush=True)
                # A non-zero exit is a failed round or view; it is in the
                # file and --compare reports it.
                subprocess.run(
                    [sys.executable, str(RUN), "--seed", str(args.seed),
                     "--out", str(out_dir / f"{side}.{rep}.json"), *extra],
                    cwd=trees[side],
                )
    finally:
        if added:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(base_tree)], cwd=REPO_ROOT
            )
    for side in trees:
        merge(side, [out_dir / f"{side}.{rep}.json" for rep in range(args.reps)],
              out_dir / f"{side}.json")
    print(f"\n######## {out_dir / 'base.json'} -> {out_dir / 'head.json'}", flush=True)
    return subprocess.run(
        [sys.executable, str(RUN), "--compare",
         str(out_dir / "base.json"), str(out_dir / "head.json")],
        cwd=REPO_ROOT,
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
