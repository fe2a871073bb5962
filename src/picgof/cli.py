"""Command line front end.

Subcommands:

- ``critical-values``: simulate a null critical value table for a design
- ``power``: rejection rate under one alternative, against a stored table
- ``power-curve``: power along a parameter grid of one family
- ``test``: statistics and p-values for a data file
- ``simulate``: draw one synthetic sample

Exit codes: 0 on success, 1 on usage errors, 2 on data errors (unreadable or
invalid files, domain violations, mismatched tables).

A relative ``--out`` path resolves against the working directory, and missing
parent directories are created; without ``--out``, results go to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .distributions import (
    DEFAULT_PARAMETER_GRIDS,
    AlternativeFamily,
    parse_family,
    test_general,
    transform_scheme,
)
from .errors import CensoringError, FamilySyntaxError
from .gof import STAT_NAMES
from .montecarlo import CriticalValueTable, critical_values, derive_stream, p_value, power
from .sampling import simulate_sample
from .schemes import (
    load_input,
    load_scheme,
    sample_from_csv,
    sample_from_json,
    sample_to_csv,
    sample_to_json,
    scheme_id,
)

__all__ = ["main", "build_parser", "UsageError"]


class UsageError(Exception):
    """Unknown, missing or unparseable flags; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="picgof",
        description="Goodness-of-fit tests for uniformity under progressive "
        "Type-I interval censoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, design=True, monte_carlo=True):
        """Add subcommand ``name`` with the flags it shares with the others."""
        p = sub.add_parser(name, help=help)
        if design:
            p.add_argument("--scheme", required=True, help="bundled scheme name or JSON path")
            p.add_argument("--n", type=int, default=40, help="sample size (default 40)")
        if monte_carlo:
            p.add_argument("--B", type=int, default=20000, dest="replications",
                           help="Monte Carlo replications (default 20000)")
            p.add_argument("--threads", type=int, default=1, dest="workers",
                           help="worker processes, never more than the CPUs this process "
                           "may run on; 0 means one per such CPU (default 1)")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", help="output path; stdout when omitted")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        p.set_defaults(run=run)
        return p

    cv = command("critical-values", _run_critical_values, "simulate a null critical value table")
    cv.add_argument("--level", type=float, default=0.05, help="test level (default 0.05)")

    pw = command("power", _run_power, "rejection rate under one alternative")
    pw.add_argument("--alt", required=True,
                    help="alternative, e.g. lehmann:2.0, centered:0.5, compressed:0.25")
    pw.add_argument("--critical", required=True, help="stored critical value table")

    pc = command("power-curve", _run_power_curve, "power along a parameter grid")
    pc.add_argument("--family", required=True, choices=tuple(DEFAULT_PARAMETER_GRIDS))
    pc.add_argument("--grid", type=_grid,
                    help="comma-separated parameter values (default: built-in grid)")
    pc.add_argument("--critical", required=True)

    ts = command("test", _run_test, "test a data file for fit", design=False)
    ts.add_argument("--data", required=True, help="sample file (.json or CSV)")
    ts.add_argument("--null", default="uniform",
                    help="hypothesized model (default uniform); e.g. lehmann:0.8 or table:f0.csv")

    sim = command("simulate", _run_simulate, "draw one synthetic sample", monte_carlo=False)
    sim.add_argument("--alt", default="uniform", help="model to sample from (default uniform)")
    return parser


def _provenance(head: dict) -> str:
    """``head`` as space-separated ``key=value`` pairs, ``scheme_id`` written ``scheme``."""
    return " ".join(f"{'scheme' if k == 'scheme_id' else k}={v}" for k, v in head.items())


def _write(ns: argparse.Namespace, head: dict, rows: str, payload: dict) -> None:
    """Write one result to ``--out`` or, without it, to stdout.

    JSON is one object, ``head`` followed by ``payload``.  CSV is the
    ``# key=value`` provenance line of ``head`` (no line when ``head`` is
    empty) followed by ``rows``.
    """
    if ns.fmt == "json":
        text = json.dumps({**head, **payload}) + "\n"
    else:
        text = (f"# {_provenance(head)}\n" if head else "") + rows
    if ns.out is None:
        sys.stdout.write(text)
        return
    path = Path(ns.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _run_critical_values(ns: argparse.Namespace) -> None:
    scheme = load_scheme(ns.scheme)
    table = critical_values(scheme, ns.n, ns.level, ns.replications, ns.seed, ns.workers)
    # the table carries its own provenance in both formats
    _write(ns, {}, table.to_csv(), json.loads(table.to_json()))


def _estimate_power(ns: argparse.Namespace, models: list) -> tuple[dict, str, list[dict]]:
    """Run :func:`power` on ``models`` for the design and table ``ns`` names.

    Returns the provenance head, the long-form CSV rows (one per statistic per
    model, each model named by its ``kind`` and ``parameter``) and one JSON
    dict per model.
    """
    scheme = load_scheme(ns.scheme)
    table = CriticalValueTable.load(ns.critical)
    freq, stderr = power(scheme, ns.n, table, models, ns.replications, ns.seed, ns.workers)
    head = {"scheme_id": scheme_id(scheme), "n": ns.n, "level": table.level,
            "B": ns.replications, "seed": ns.seed}
    lines, points = ["family,param,stat,power,stderr"], []
    for model, rates, errors in zip(models, freq.tolist(), stderr.tolist()):
        param = "" if model.parameter is None else repr(model.parameter)
        lines += [f"{model.kind},{param},{name},{f!r},{e!r}"
                  for name, f, e in zip(STAT_NAMES, rates, errors)]
        points.append({"parameter": model.parameter, "power": dict(zip(STAT_NAMES, rates)),
                       "stderr": dict(zip(STAT_NAMES, errors))})
    return head, "\n".join(lines) + "\n", points


def _run_power(ns: argparse.Namespace) -> None:
    alternative = parse_family(ns.alt)
    head, rows, [point] = _estimate_power(ns, [alternative])
    # CSV names the alternative by its spec; JSON by the payload's family and parameter
    if ns.fmt == "csv":
        head["alt"] = ns.alt
    _write(ns, head, rows, {"family": alternative.kind, **point})


def _run_power_curve(ns: argparse.Namespace) -> None:
    grid = ns.grid if ns.grid is not None else DEFAULT_PARAMETER_GRIDS[ns.family]
    models = [AlternativeFamily(ns.family, p) for p in grid]
    head, rows, points = _estimate_power(ns, models)
    _write(ns, {**head, "family": ns.family}, rows, {"points": points})


def _run_test(ns: argparse.Namespace) -> None:
    null = parse_family(ns.null)
    sample = load_input(ns.data, sample_from_csv, sample_from_json)
    working_scheme = transform_scheme(sample.scheme, null)
    stats = test_general(sample, null)
    pvals = p_value(stats, working_scheme, sample.n, ns.replications, ns.seed, ns.workers)
    head = {"scheme_id": scheme_id(working_scheme), "n": sample.n, "null": ns.null,
            "B": ns.replications, "seed": ns.seed}
    rows = ["kind," + ",".join(STAT_NAMES), "statistic," + ",".join(map(repr, stats)),
            "p_value," + ",".join(repr(pvals[name]) for name in STAT_NAMES)]
    _write(ns, head, "\n".join(rows) + "\n",
           {"statistics": dict(zip(STAT_NAMES, stats)), "p_values": pvals})


def _run_simulate(ns: argparse.Namespace) -> None:
    model = parse_family(ns.alt)
    scheme = load_scheme(ns.scheme)
    sample = simulate_sample(scheme, ns.n, model, derive_stream(ns.seed, 0))
    _write(ns, {}, sample_to_csv(sample), json.loads(sample_to_json(sample)))
    head = {"scheme_id": scheme_id(scheme), "n": ns.n, "alt": ns.alt, "seed": ns.seed}
    print(f"simulate: {_provenance(head)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        ns.run(ns)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except (UsageError, FamilySyntaxError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (CensoringError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
