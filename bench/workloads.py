"""Workload inputs, generated from the workload seed before any timing starts.

Each workload is a list of CLI invocations (argv after ``picgof``), each with
the Monte Carlo replications it performs and the check its stdout must pass.
Input files are written into a work directory that is also the invocations'
working directory, so every argv names its files by relative path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import exact

N_CALIBRATE = 40
N_SWEEP = 200
N_TEST = 40
LEVEL = 0.05
B_CALIBRATE = 20000
B_SWEEP = 20000
B_TEST = 2000
TEST_BATCH_SIZE = 12
SEED_RANGE = 2**32


@dataclass
class Call:
    argv: list[str]
    reps: int
    check: Callable[[str], list[str]]


@dataclass
class Workload:
    calls: list[Call]
    #: Invocations of one traced pass; defaults to ``calls``.
    trace_calls: list[Call] = field(default_factory=list)
    #: Pairs of invocations whose stdout must be byte-identical.
    probes: list[tuple[Call, Call]] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.trace_calls = self.trace_calls or self.calls


def _with_threads(call: Call, threads: int) -> Call:
    argv = list(call.argv)
    argv[argv.index("--threads") + 1] = str(threads)
    return Call(argv, call.reps, call.check)


def _order_statistic_bounds(scheme, design, reference) -> dict[str, tuple[float, float]]:
    """Check bounds for one design, after confirming the enumerated exact
    critical values reproduce the published table."""
    laws = exact.null_laws(scheme.times, scheme.percentages, N_CALIBRATE)
    bounds = {}
    for name, law in zip(checks.STAT_NAMES, laws):
        low, high, exact_value = exact.order_statistic_bounds(law, LEVEL, B_CALIBRATE)
        if not abs(exact_value - reference[design][name]) <= checks.TABLE_TOLERANCE:
            raise RuntimeError(
                f"exact {design}/{name} = {exact_value} is not within "
                f"{checks.TABLE_TOLERANCE} of the published {reference[design][name]}"
            )
        bounds[name] = (low, high)
    return bounds


def calibrate(pg, seed, work: Path, reference, threads) -> Workload:
    """``critical-values`` for the four bundled designs, as the paper's tables are made.

    A simulated critical value is an order statistic of a discrete law and can
    land one atom away from the published value (t2p1's c_minus does so for
    about a quarter of seeds), so each value is checked against the range its
    order statistic can reach under the exact law instead of the published
    table's +/-0.02; the exact values themselves must match the table.
    """
    rng = random.Random(seed)
    calls = []
    for design in pg.BUNDLED_SCHEME_NAMES:
        s = rng.randrange(SEED_RANGE)
        scheme = pg.load_scheme(design)
        argv = [
            "critical-values", "--scheme", design, "--n", str(N_CALIBRATE),
            "--level", repr(LEVEL), "--B", str(B_CALIBRATE), "--seed", str(s),
            "--threads", "1",
        ]
        check = partial(
            checks.check_critical_values, scheme_id=pg.scheme_id(scheme), n=N_CALIBRATE,
            level=LEVEL, B=B_CALIBRATE, seed=s,
            bounds=_order_statistic_bounds(scheme, design, reference),
        )
        calls.append(Call(argv, B_CALIBRATE, check))
    probe = calls[seed % len(calls)]
    return Workload(
        calls,
        probes=[(probe, _with_threads(probe, threads))],
        inputs={"seeds": [c.argv[c.argv.index("--seed") + 1] for c in calls]},
    )


def power_sweep(pg, seed, work: Path, reference, threads) -> Workload:
    """``power-curve --family compressed`` on a generated 10-inspection design.

    The critical table is computed here, untimed, with the sweep's own seed:
    the grid's first member g = 0 is the uniform null bit for bit, so with
    common random numbers its rejection rate is at most the level exactly,
    and the null-member check cannot fail by calibration noise.
    """
    rng = random.Random(seed)
    design = {"times": [round(0.06 * i, 2) for i in range(11)], "percentages": [0.1] * 9 + [1.0]}
    (work / "design10.json").write_text(json.dumps(design), "utf-8")
    s = rng.randrange(SEED_RANGE)
    scheme = pg.load_scheme(str(work / "design10.json"))
    table = pg.critical_values(scheme, N_SWEEP, LEVEL, B_SWEEP, seed=s, workers=threads)
    (work / "critical10.json").write_text(table.to_json() + "\n", "utf-8")
    grid = pg.DEFAULT_PARAMETER_GRIDS["compressed"]
    argv = [
        "power-curve", "--scheme", "design10.json", "--n", str(N_SWEEP),
        "--family", "compressed", "--critical", "critical10.json",
        "--B", str(B_SWEEP), "--seed", str(s), "--threads", str(threads),
    ]
    call = Call(argv, B_SWEEP * len(grid), partial(checks.check_power_curve, grid=grid, level=LEVEL))
    # pool children cannot be traced from outside, so the traced pass also
    # runs once in-process to time the per-replication layers
    return Workload(
        [call],
        trace_calls=[_with_threads(call, 1), call],
        inputs={"seed": s, "design": design, "critical": table.values},
    )


def _tabulated_cdf(rng: random.Random, points: int = 17) -> str:
    steps = [rng.uniform(0.5, 1.5) for _ in range(points - 1)]
    total = sum(steps)
    values = [0.0]
    for step in steps[:-1]:
        values.append(values[-1] + step / total)
    values.append(1.0)
    rows = [f"{i / (points - 1)!r},{v!r}" for i, v in enumerate(values)]
    return "x,cdf\n" + "\n".join(rows) + "\n"


def test_batch(pg, seed, work: Path, reference, threads) -> Workload:
    """``test --B 2000`` over simulated sample files against three kinds of null."""
    rng = random.Random(seed)
    (work / "f0.csv").write_text(_tabulated_cdf(rng), "utf-8")
    models = [
        "uniform",
        f"lehmann:{rng.uniform(0.5, 2.5):.3f}",
        f"centered:{rng.uniform(0.5, 2.5):.3f}",
        f"compressed:{rng.uniform(0.02, 0.3):.3f}",
    ]
    nulls = ["uniform", "lehmann:0.8", "table:f0.csv"]
    calls = []
    files = []
    for i in range(TEST_BATCH_SIZE):
        # every design appears equally often, so a pass costs the same for any seed
        design = pg.BUNDLED_SCHEME_NAMES[(i + i // len(models)) % len(pg.BUNDLED_SCHEME_NAMES)]
        model = models[i % len(models)]
        null_spec = nulls[i % len(nulls)]
        sample = pg.simulate_sample(
            pg.load_scheme(design), N_TEST, pg.parse_family(model),
            pg.derive_stream(rng.randrange(SEED_RANGE), 0),
        )
        if (i // len(models)) % 2:
            name, text = f"sample{i:02d}.json", pg.sample_to_json(sample) + "\n"
            parsed = pg.sample_from_json(text)
        else:
            name, text = f"sample{i:02d}.csv", pg.sample_to_csv(sample)
            parsed = pg.sample_from_csv(text)
        (work / name).write_text(text, "utf-8")
        null = pg.parse_family(null_spec.replace("table:", f"table:{work}/"))
        if null.kind == "uniform":
            stats = pg.compute_statistics(pg.deviations(parsed, pg.UNIFORM))
        else:
            stats = pg.test_general(parsed, null)
        s = rng.randrange(SEED_RANGE)
        argv = [
            "test", "--data", name, "--null", null_spec, "--B", str(B_TEST),
            "--seed", str(s), "--threads", "1",
        ]
        row = "statistic," + ",".join(repr(v) for v in stats.as_tuple())
        calls.append(Call(argv, B_TEST, partial(checks.check_test, statistic_row=row, B=B_TEST, seed=s)))
        files.append({"file": name, "design": design, "model": model, "null": null_spec})
    return Workload(calls, inputs={"samples": files})


PREPARE = {"calibrate": calibrate, "power-sweep": power_sweep, "test-batch": test_batch}
