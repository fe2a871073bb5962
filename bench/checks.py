"""Output checks for the benchmark workloads, and a self-test that shows each
check flags a corrupted output.

Every check takes the stdout text of one CLI invocation plus what the benchmark
expects of it, and returns a list of problems; an empty list means the output
passed.  The checks are statistical where the output is random, so they stay
valid whatever the seed and when the Monte Carlo engine changes its random
stream layout.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

STAT_NAMES = ("c_plus", "c_minus", "c", "k", "t1", "t2")
TABLE_HEADER = "scheme_id,n,level,B,seed," + ",".join(STAT_NAMES)
POWER_HEADER = "family,param,stat,power,stderr"
TABLE_TOLERANCE = 0.02
TERMINAL_POWER = 0.15
#: Float slack when comparing a simulated value with an enumerated atom.
ATOM_TOLERANCE = 1e-9


def reference_critical(tests_file: Path) -> dict[str, dict[str, float]]:
    """The published 5% table, read from the acceptance tests' own assignment."""
    tree = ast.parse(tests_file.read_text("utf-8"))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) == "REFERENCE_CRITICAL"
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no REFERENCE_CRITICAL assignment in {tests_file}")


def _data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


def check_critical_values(text, *, scheme_id, n, level, B, seed, bounds) -> list[str]:
    """A ``critical-values`` CSV table: provenance fields, and each value within
    the (low, high) range ``bounds[name]`` its order statistic can reach."""
    lines = _data_lines(text)
    if len(lines) != 2 or lines[0] != TABLE_HEADER:
        return [f"expected header and one row, got {lines[:3]!r}"]
    cells = lines[1].split(",")
    if len(cells) != 5 + len(STAT_NAMES):
        return [f"expected {5 + len(STAT_NAMES)} columns, got {len(cells)}"]
    problems = []
    expected = [scheme_id, str(n), repr(level), str(B), str(seed)]
    if cells[:5] != expected:
        problems.append(f"provenance {cells[:5]} != {expected}")
    for name, cell in zip(STAT_NAMES, cells[5:]):
        try:
            value = float(cell)
        except ValueError:
            problems.append(f"{name}: non-numeric {cell!r}")
            continue
        low, high = bounds[name]
        if not low - ATOM_TOLERANCE <= value <= high + ATOM_TOLERANCE:
            problems.append(f"{name}: {value} outside [{low}, {high}]")
    return problems


def _power_rows(text: str):
    lines = _data_lines(text)
    if not lines or lines[0] != POWER_HEADER:
        raise ValueError(f"expected header {POWER_HEADER!r}")
    curve: dict[float, dict[str, tuple[float, float]]] = {}
    for ln in lines[1:]:
        _family, param, stat, pw, se = ln.split(",")
        curve.setdefault(float(param), {})[stat] = (float(pw), float(se))
    return curve


def check_power_curve(text, *, grid, level) -> list[str]:
    """A ``power-curve`` CSV over an ordered family grid starting at its null member.

    At the null member each statistic rejects at most level + 3 stderr; t1 and
    t2 power is nondecreasing along the grid within 2 combined stderr; the last
    point's t1 and t2 power exceeds TERMINAL_POWER.
    """
    try:
        curve = _power_rows(text)
    except ValueError as exc:
        return [f"unreadable power curve: {exc}"]
    if list(curve) != [float(g) for g in grid]:
        return [f"grid {list(curve)} != {list(grid)}"]
    if any(set(point) != set(STAT_NAMES) for point in curve.values()):
        return ["a grid point lacks some statistic"]
    problems = []
    points = list(curve.values())
    for name in STAT_NAMES:
        pw, se = points[0][name]
        if pw > level + 3.0 * se:
            problems.append(f"null member {name}: power {pw} > {level} + 3*{se}")
    for name in ("t1", "t2"):
        for i in range(len(points) - 1):
            (a, sa), (b, sb) = points[i][name], points[i + 1][name]
            if b - a < -2.0 * math.hypot(sa, sb):
                problems.append(f"{name}: power falls from {a} to {b} at step {i}")
        if not points[-1][name][0] > TERMINAL_POWER:
            problems.append(f"{name}: terminal power {points[-1][name][0]} <= {TERMINAL_POWER}")
    return problems


def check_test(text, *, statistic_row, B, seed) -> list[str]:
    """A ``test`` CSV report: the exact statistic row and valid add-one p-values."""
    lines = _data_lines(text)
    if len(lines) != 3 or lines[0] != "kind," + ",".join(STAT_NAMES):
        return [f"expected header and two rows, got {lines!r}"]
    problems = []
    fields = dict(f.partition("=")[::2] for f in text.splitlines()[0].lstrip("# ").split())
    if fields.get("B") != str(B) or fields.get("seed") != str(seed):
        problems.append(f"provenance {fields} lacks B={B} seed={seed}")
    if lines[1] != statistic_row:
        problems.append(f"statistic row {lines[1]!r} != {statistic_row!r}")
    cells = lines[2].split(",")
    if cells[0] != "p_value" or len(cells) != 1 + len(STAT_NAMES):
        return problems + [f"bad p-value row {lines[2]!r}"]
    for name, cell in zip(STAT_NAMES, cells[1:]):
        try:
            p = float(cell)
        except ValueError:
            problems.append(f"{name}: non-numeric p-value {cell!r}")
            continue
        hits = p * (B + 1)
        if not 1.0 / (B + 1) <= p <= 1.0:
            problems.append(f"{name}: p-value {p} outside [1/(B+1), 1]")
        elif abs(hits - round(hits)) > 1e-6 * (B + 1):
            problems.append(f"{name}: p-value {p} is not a multiple of 1/(B+1)")
    return problems


def selftest(reference: dict[str, dict[str, float]]) -> list[str]:
    """Run every check on a valid and on corrupted outputs.

    Returns the cases where a check misjudged its input; an empty list means
    every check passed its valid output and flagged every corruption.
    """
    ref = reference["t1p1"]
    bounds = {name: (v - 0.01, v + 0.01) for name, v in ref.items()}
    table_args = dict(scheme_id="sX", n=40, level=0.05, B=100, seed=7, bounds=bounds)

    def table(values):
        row = ["sX", "40", "0.05", "100", "7"] + [repr(values[s]) for s in STAT_NAMES]
        return f"{TABLE_HEADER}\n{','.join(row)}\n"

    grid = (0.0, 0.1, 0.2)

    def curve(powers, se=0.001):
        rows = [POWER_HEADER]
        for g, pw in zip(grid, powers):
            rows += [f"compressed,{g!r},{s},{pw!r},{se!r}" for s in STAT_NAMES]
        return "# provenance\n" + "\n".join(rows) + "\n"

    stat_row = "statistic," + ",".join(repr(0.1 * (i + 1)) for i in range(6))

    def report(pvals, row=stat_row):
        return (
            "# scheme=sX n=40 null=uniform B=100 seed=7\n"
            f"kind,{','.join(STAT_NAMES)}\n{row}\n"
            "p_value," + ",".join(repr(p) for p in pvals) + "\n"
        )

    test_args = dict(statistic_row=stat_row, B=100, seed=7)
    good_p = [k / 101 for k in (1, 5, 30, 60, 100, 101)]
    shifted = dict(ref, t2=ref["t2"] + 0.05)
    cases = [
        ("valid table", check_critical_values(table(ref), **table_args), False),
        ("critical value off by 0.05", check_critical_values(table(shifted), **table_args), True),
        ("wrong seed", check_critical_values(table(ref), **dict(table_args, seed=8)), True),
        ("missing row", check_critical_values(TABLE_HEADER + "\n", **table_args), True),
        ("valid curve", check_power_curve(curve([0.04, 0.3, 0.9]), grid=grid, level=0.05), False),
        ("decreasing curve", check_power_curve(curve([0.04, 0.9, 0.3]), grid=grid, level=0.05), True),
        ("oversized null", check_power_curve(curve([0.2, 0.3, 0.9]), grid=grid, level=0.05), True),
        ("weak terminal", check_power_curve(curve([0.04, 0.1, 0.12]), grid=grid, level=0.05), True),
        ("short grid", check_power_curve(curve([0.04, 0.3]), grid=grid, level=0.05), True),
        ("valid report", check_test(report(good_p), **test_args), False),
        ("p-value of 0", check_test(report([0.0] + good_p[1:]), **test_args), True),
        ("p-value off lattice", check_test(report([0.5] + good_p[1:]), **test_args), True),
        ("p-value not a number", check_test(report(good_p).replace("p_value,", "p_value,x"), **test_args), True),
        ("altered statistic", check_test(report(good_p, stat_row + "1"), **test_args), True),
    ]
    return [
        f"{name}: {'missed' if should_flag else 'flagged'} ({problems})"
        for name, problems, should_flag in cases
        if bool(problems) != should_flag
    ]
