#!/usr/bin/env python3
"""Recompute the 5% critical value tables for the four bundled designs.

Prints a side-by-side comparison against the published reference values and
exits nonzero if any entry drifts beyond ``bench.checks.TABLE_TOLERANCE``
(0.02).  With the default settings (n=40, B=20000, seed=1) every entry lands
within it.  The published values are the one copy in tests/test_acceptance.py
(``REFERENCE_CRITICAL``).
"""

import argparse
import pathlib
import sys

import picgof as pg

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from bench.checks import TABLE_TOLERANCE, reference_critical  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=40)
    parser.add_argument("--level", type=float, default=0.05)
    parser.add_argument("--B", type=int, default=20000, dest="replications")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument(
        "--out-dir", default=None,
        help="also write one CSV table per design into this directory",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    reference_table = reference_critical(ROOT / "tests" / "test_acceptance.py")
    worst = 0.0
    print(f"n={args.n} level={args.level} B={args.replications} "
          f"seed={args.seed} threads={args.threads}")
    header = f"{'design':8s}{'stat':9s}{'simulated':>10s}{'reference':>10s}{'diff':>9s}"
    print(header)
    print("-" * len(header))
    for name in pg.BUNDLED_SCHEME_NAMES:
        scheme = pg.load_scheme(name)
        table = pg.critical_values(
            scheme, args.n, args.level, args.replications,
            seed=args.seed, workers=args.threads,
        )
        for stat in pg.STAT_NAMES:
            reference = reference_table[name][stat]
            simulated = table.values[stat]
            diff = simulated - reference
            worst = max(worst, abs(diff))
            print(f"{name:8s}{stat:9s}{simulated:10.4f}{reference:10.4f}{diff:+9.4f}")
        if args.out_dir is not None:
            out_dir = pathlib.Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{name}.csv").write_text(table.to_csv())
    print("-" * len(header))
    print(f"worst |diff| = {worst:.4f} (tolerance {TABLE_TOLERANCE})")
    return 0 if worst <= TABLE_TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
