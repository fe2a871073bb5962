#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: this checkout against another revision.

Run from anywhere inside the repository:

    python3 scripts/bench_pairs.py --against HEAD~1 --workload power-sweep \\
        --seed 1 --pairs 10 --seconds 30 --out pairs.json

Both sides run from ``git worktree`` checkouts under ``.bench_work/``,
removed afterwards, so that neither runs in a tree the other does not have:
the parent side checks out the other revision, the change side a snapshot of
this checkout's working tree (``git stash create``, or HEAD when the tree is
clean).  Untracked files under ``src/`` or ``bench/`` would be missing from
that snapshot, so the tool refuses to run while there are any.  Each pair
runs each tree's own ``bench/run.py`` once with the same arguments,
alternating which side goes first; all timing comes from those runs.  Per
metric the JSON printed on stdout gives each side's median and quartiles,
the per-pair change/parent ratios and their median, the number of pairs the
change wins (strictly better in the metric's direction from BENCHMARK.json),
and ``gain``.  ``gain`` is true only where the change wins at least nine
tenths of the pairs, ties counting for neither side, and its median beats the
parent's by more than the parent's quartile distance.  The comparison also
records the BLAS/OpenMP thread variables the runs inherited (``thread_env``,
null when unset), because exporting ``OPENBLAS_NUM_THREADS`` changes what both
sides cost, and the bytecode variables (``bytecode_env``), because with
``PYTHONDONTWRITEBYTECODE`` set and no ``__pycache__`` in the fresh worktrees
every timed process compiles picgof from source, a cost an installed picgof
does not pay.  ``--out`` also appends the comparison to a BENCH file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Variables that decide whether the timed processes read or write cached bytecode.
BYTECODE_VARS = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True, choices=("calibrate", "power-sweep", "test-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="BENCH file to append the comparison to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def bench(tree: Path, args) -> dict:
    """The report and result of one ``bench/run.py`` run in ``tree``."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {tree}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    report, _, result = proc.stdout.rstrip("\n").rpartition("\n")
    return {"report": json.loads(report), "result": json.loads(result)}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3}


def compare(runs: list[dict], directions: dict[str, str]) -> dict:
    out = {}
    for name, better in directions.items():
        change = [r["change"]["result"]["metrics"][name]["value"] for r in runs]
        parent = [r["parent"]["result"]["metrics"][name]["value"] for r in runs]
        ratios = [c / p if p else None for c, p in zip(change, parent)]
        wins = sum(c < p if better == "lower" else c > p for c, p in zip(change, parent))
        known = [x for x in ratios if x is not None]
        sides = {"change": quartiles(change), "parent": quartiles(parent)}
        lead = sides["parent"]["median"] - sides["change"]["median"]
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        out[name] = {
            "better": better,
            **sides,
            "ratios": ratios,
            "median_ratio": statistics.median(known) if known else None,
            "wins": wins,
            "pairs": len(runs),
            # nine tenths of the pairs, in integers so that float rounding cannot decide
            "gain": 10 * wins >= 9 * len(runs) and (lead if better == "lower" else -lead) > spread,
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sha = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    directions = {m["name"]: m["better"] for m in metrics}
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src", "bench")
    if untracked:
        raise SystemExit("bench_pairs: untracked files would be missing from the change side; "
                         f"add or remove them first:\n{untracked}")
    snapshot = git("stash", "create") or git("rev-parse", "HEAD")
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    trees = {"change": work / f"change-{snapshot[:12]}", "parent": work / f"parent-{sha[:12]}"}
    try:
        for side, rev in (("change", snapshot), ("parent", sha)):
            git("worktree", "add", "--detach", str(trees[side]), rev)
        runs = []
        for i in range(args.pairs):
            order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
            run = {"first": order[0]}
            for side in order:
                print(f"bench_pairs: pair {i + 1}/{args.pairs}: {side}", file=sys.stderr)
                run[side] = bench(trees[side], args)
            runs.append(run)
    finally:
        for tree in trees.values():
            if tree.exists():
                git("worktree", "remove", "--force", str(tree))
        git("worktree", "prune")
        try:
            work.rmdir()
        except OSError:
            pass
    comparison = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pairs": args.pairs,
        "against": sha,
        "change_src_sha256": runs[0]["change"]["report"]["machine"]["src_sha256"],
        "parent_src_sha256": runs[0]["parent"]["report"]["machine"]["src_sha256"],
        "correct": all(r[s]["result"]["correct"] for r in runs for s in ("change", "parent")),
        "first": [r["first"] for r in runs],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "bytecode_env": {var: os.environ.get(var) for var in BYTECODE_VARS},
        "metrics": compare(runs, directions),
    }
    machine = runs[0]["change"]["report"]["machine"]
    if args.out:
        path = Path(args.out)
        record = json.loads(path.read_text("utf-8")) if path.exists() else {"comparisons": []}
        record["machine"] = {k: v for k, v in machine.items() if k not in ("commit", "src_sha256")}
        record["comparisons"].append(comparison)
        path.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    print(json.dumps({"machine": machine, **comparison}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
