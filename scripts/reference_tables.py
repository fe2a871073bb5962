#!/usr/bin/env python3
"""Recompute the 5% critical values of the four bundled designs at n = 40 and
compare them with the published table.

The published table exists only at n = 40 and level 0.05, so both are fixed.
Prints a side-by-side comparison and exits nonzero if any entry drifts beyond
``bench.checks.TABLE_TOLERANCE`` (0.02).  With the default settings
(B=20000, seed=1) every entry lands within it.  The published values are the
one copy in tests/test_acceptance.py (``REFERENCE_CRITICAL``).  Nothing is
written; ``picgof critical-values`` (or ``scripts/power_curves.py``) writes
tables.
"""

import argparse
import pathlib
import sys

import picgof as pg

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from bench.checks import TABLE_TOLERANCE, reference_critical  # noqa: E402

#: The sample size and level of the published table.
N = 40
LEVEL = 0.05


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--B", type=int, default=20000, dest="replications")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--threads", type=int, default=2)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    reference_table = reference_critical(ROOT / "tests" / "test_acceptance.py")
    worst = 0.0
    print(f"n={N} level={LEVEL} B={args.replications} seed={args.seed} threads={args.threads}")
    header = f"{'design':8s}{'stat':9s}{'simulated':>10s}{'reference':>10s}{'diff':>9s}"
    print(header)
    print("-" * len(header))
    for name in pg.BUNDLED_SCHEME_NAMES:
        scheme = pg.load_scheme(name)
        table = pg.critical_values(
            scheme, N, LEVEL, args.replications, seed=args.seed, workers=args.threads,
        )
        for stat in pg.STAT_NAMES:
            reference = reference_table[name][stat]
            simulated = table.values[stat]
            diff = simulated - reference
            worst = max(worst, abs(diff))
            print(f"{name:8s}{stat:9s}{simulated:10.4f}{reference:10.4f}{diff:+9.4f}")
    print("-" * len(header))
    print(f"worst |diff| = {worst:.4f} (tolerance {TABLE_TOLERANCE})")
    return 0 if worst <= TABLE_TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
