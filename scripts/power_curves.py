#!/usr/bin/env python3
"""Sweep the alternative families and write power curves to CSV.

For each requested design, runs ``picgof critical-values`` (seeded with
--table-seed) into <out-dir>/<design>.csv, then, for each family,
``picgof power-curve`` against that table into <out-dir>/<design>_<family>.csv:
the rejection frequency of every statistic along the family's parameter grid,
with common random numbers.  Every file is exactly what the CLI writes.  A
design is named by its bundled name, a scheme file by its scheme id.
"""

import argparse
import pathlib
import sys
import time

import picgof as pg
from picgof.cli import main as cli


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scheme", default="t1p1",
        help="bundled design name, path to a scheme JSON file, or 'all'",
    )
    parser.add_argument(
        "--family", default="all",
        choices=(*sorted(pg.DEFAULT_PARAMETER_GRIDS), "all"),
    )
    parser.add_argument("--n", type=int, default=40)
    parser.add_argument("--level", type=float, default=0.05)
    parser.add_argument("--B", type=int, default=20000, dest="replications")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--table-seed", type=int, default=1)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--out-dir", default="power_out")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(pg.BUNDLED_SCHEME_NAMES) if args.scheme == "all" else [args.scheme]
    families = sorted(pg.DEFAULT_PARAMETER_GRIDS) if args.family == "all" else [args.family]
    out_dir = pathlib.Path(args.out_dir)
    runs = ["--n", str(args.n), "--B", str(args.replications), "--threads", str(args.threads)]
    for name in names:
        try:
            stem = name if name in pg.BUNDLED_SCHEME_NAMES else pg.scheme_id(pg.load_scheme(name))
        except (pg.CensoringError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        table = out_dir / f"{stem}.csv"
        calls = [(table, ["critical-values", "--level", str(args.level),
                          "--seed", str(args.table_seed)])]
        calls += [(out_dir / f"{stem}_{family}.csv",
                   ["power-curve", "--family", family, "--critical", str(table),
                    "--seed", str(args.seed)]) for family in families]
        for path, argv in calls:
            started = time.perf_counter()
            code = cli([*argv, "--scheme", name, *runs, "--out", str(path)])
            if code:
                return code
            print(f"{path}  ({time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
