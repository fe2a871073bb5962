"""Censoring designs and observed samples for progressive Type-I interval life tests.

A life test puts ``n`` units on test at time 0 and inspects them at fixed
times t_1 < ... < t_m.  At inspection i the number of failures since the
previous inspection is recorded and a pre-specified fraction p_i of the
surviving units is withdrawn from the test; the final inspection withdraws
every remaining unit (p_m = 1), ending the experiment.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CensoringError

#: Names accepted by :func:`load_scheme` in addition to file paths.
BUNDLED_SCHEME_NAMES = ("t1p1", "t1p2", "t2p1", "t2p2")

SAMPLE_CSV_HEADER = "t_i,x_i,r_i"

#: Exclusive bound on a sample size: every count and survivor is an exact float64.
MAX_N = 2**53


@dataclass(frozen=True)
class CensoringScheme:
    """Inspection times (t_0 = 0, t_1, ..., t_m) and withdrawal percentages (p_1, ..., p_m).

    ``times`` carries the leading t_0 = 0 explicitly, so it has one more
    entry than ``percentages``.  Construction validates; invalid input
    raises rather than being repaired.
    """

    times: tuple[float, ...]
    percentages: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(as_real(t, "inspection time") for t in self.times)
        pct = tuple(as_real(p, "percentage") for p in self.percentages)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "percentages", pct)
        if len(times) < 2:
            raise CensoringError("need at least one inspection time beyond t_0 = 0")
        if times[0] != 0.0:
            raise CensoringError(f"times must start at 0, got {times[0]!r}")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise CensoringError(
                    f"inspection times must be strictly increasing, got {a!r} followed by {b!r}"
                )
        if len(pct) != len(times) - 1:
            raise CensoringError(
                f"expected {len(times) - 1} withdrawal percentages, got {len(pct)}"
            )
        for p in pct:
            if not 0.0 <= p <= 1.0:
                raise CensoringError(f"withdrawal percentage {p!r} outside [0, 1]")
        if pct[-1] != 1.0:
            raise CensoringError(
                f"the final withdrawal percentage must be exactly 1, got {pct[-1]!r}"
            )

    @property
    def m(self) -> int:
        """Number of inspections."""
        return len(self.times) - 1

    @property
    def inspection_times(self) -> tuple[float, ...]:
        """Times t_1, ..., t_m (without the leading 0)."""
        return self.times[1:]


@dataclass(frozen=True)
class CensoredSample:
    """Observed counts from one progressively Type-I interval censored life test.

    ``failures[i]`` counts units failing in (t_i, t_{i+1}] and ``removals[i]``
    the survivors withdrawn at the inspection ending that interval.  The counts
    keep the count rule of :func:`survival_values`, and every unit is accounted
    for: failures and removals sum to ``n``.
    """

    scheme: CensoringScheme
    n: int
    failures: tuple[int, ...]
    removals: tuple[int, ...]

    def __post_init__(self) -> None:
        n, failures, removals, survivors = _count_trajectory(self.n, self.failures, self.removals,
                                                             self.scheme.m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "failures", tuple(failures))
        object.__setattr__(self, "removals", tuple(removals))
        if survivors[-1] != removals[-1]:  # so the final inspection withdraws every survivor
            raise CensoringError(f"failures and removals must account for all {n} units, "
                                 f"{survivors[-1] - removals[-1]} left unresolved")


def _count_trajectory(n, failures, removals, m=None) -> tuple[int, list[int], list[int], list[int]]:
    """n and the counts as ints and the survivors after each interval's failures, or
    :class:`CensoringError` unless the counts keep the count rule of :func:`survival_values`
    (and, when a scheme's number of inspections ``m`` is given, cover all m)."""
    for counts, what in ((failures, "failure"), (removals, "removal")):
        if not np.iterable(counts):
            raise CensoringError(f"{what} counts must be a sequence of integers, got {counts!r}")
    failures = [as_int(x, "failure count") for x in failures]
    removals = [as_int(r, "removal count") for r in removals]
    if len(removals) != len(failures) or m not in (None, len(failures)):
        got = f"got {len(failures)} failure and {len(removals)} removal counts"
        raise CensoringError(f"need one removal count per failure count, {got}" if m is None
                             else f"scheme has {m} inspections but {got}")
    n = as_int(n, "n", 1, MAX_N)
    survivors, at_risk = [], n
    for i, (x, r) in enumerate(zip(failures, removals), start=1):
        if x > at_risk:
            raise CensoringError(f"more failures than units at risk at inspection {i}")
        survivors.append(at_risk - x)
        if r > survivors[-1]:
            raise CensoringError(f"more removals than survivors at inspection {i}")
        at_risk = survivors[-1] - r
    return n, failures, removals, survivors


def withdraw_count(percentage: float, survivors: int | np.ndarray) -> int | np.ndarray:
    """Units withdrawn at an inspection: floor(percentage * survivors).

    A tiny additive guard absorbs binary representation error in decimal
    percentages, so that e.g. 0.1 of 30 survivors withdraws exactly 3.  Below
    MAX_N every survivor count is an exact float, so for 0 <= percentage <= 1
    the product never exceeds it and neither does the count; an int64 array of
    survivors gets, elementwise, the int a Python int gets.
    """
    count = np.floor(percentage * np.asarray(survivors, dtype=np.int64) + 1e-9).astype(np.int64)
    return count if isinstance(survivors, np.ndarray) else int(count)


def scheme_id(scheme: CensoringScheme) -> str:
    """Short content digest of a scheme, stable across runs and processes.

    Used to tie critical value tables to the design they were computed for.
    """
    payload = json.dumps(scheme_fields(scheme), separators=(",", ":"))
    return "s" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]


# ---------------------------------------------------------------------------
# serialization


def scheme_fields(scheme: CensoringScheme) -> dict[str, list[float]]:
    """The JSON encoding of a scheme: its ``times`` and ``percentages`` lists."""
    return {"times": list(scheme.times), "percentages": list(scheme.percentages)}


def scheme_to_json(scheme: CensoringScheme) -> str:
    return json.dumps(scheme_fields(scheme))


def scheme_from_json(text: str) -> CensoringScheme:
    obj = json.loads(text)
    try:
        return CensoringScheme(obj["times"], obj["percentages"])
    except (TypeError, KeyError) as exc:
        raise CensoringError(f"scheme JSON needs 'times' and 'percentages' lists: {exc}") from None


def load_scheme(spec: str) -> CensoringScheme:
    """Load a scheme by bundled name (see BUNDLED_SCHEME_NAMES) or JSON file path."""
    if spec in BUNDLED_SCHEME_NAMES:
        spec = Path(__file__).with_name("data") / f"{spec}.json"
    return load_input(spec, scheme_from_json)


def sample_to_json(sample: CensoredSample) -> str:
    return json.dumps(
        {
            **scheme_fields(sample.scheme),
            "n": sample.n,
            "failures": list(sample.failures),
            "removals": list(sample.removals),
        }
    )


def sample_from_json(text: str) -> CensoredSample:
    obj = json.loads(text)
    try:
        scheme = CensoringScheme(obj["times"], obj["percentages"])
        return CensoredSample(scheme, obj["n"], tuple(obj["failures"]), tuple(obj["removals"]))
    except (TypeError, KeyError) as exc:
        raise CensoringError(f"sample JSON is missing fields: {exc}") from None


def sample_to_csv(sample: CensoredSample) -> str:
    """Canonical CSV form: header ``t_i,x_i,r_i`` and one row per inspection.

    The output is byte-stable: re-serializing a parsed sample reproduces it
    exactly.
    """
    lines = [SAMPLE_CSV_HEADER]
    for t, x, r in zip(sample.scheme.inspection_times, sample.failures, sample.removals):
        lines.append(f"{t!r},{x},{r}")
    return "\n".join(lines) + "\n"


def sample_from_csv(text: str) -> CensoredSample:
    """Parse the CSV sample format.

    The total ``n`` is the sum of all counts.  Withdrawal percentages are not
    part of the format; each is inferred as the smallest float p >= r_i / s_i
    whose withdrawal from the s_i survivors at inspection i is r_i (and 1 at the
    final inspection), so the inferred scheme reproduces the removals.  Grammar:
    :func:`csv_rows`.
    """
    rows = csv_rows(text, SAMPLE_CSV_HEADER.split(","))
    if not rows:
        raise CensoringError("no data rows")
    failures = [as_int(x, "failure count") for _, x, _ in rows]
    removals = [as_int(r, "removal count") for _, _, r in rows]
    n, _, _, survivors = _count_trajectory(sum(failures) + sum(removals), failures, removals)
    percentages = []
    for r, s in zip(removals[:-1], survivors):
        p = r / s if s else 0.0
        while p < 1.0 and withdraw_count(p, s) < r:  # r / s can round low; 1.0 ends the walk
            p = math.nextafter(p, 1.0)
        percentages.append(p)
    scheme = CensoringScheme([0.0] + [t for t, _, _ in rows], percentages + [1.0])
    return CensoredSample(scheme, n, tuple(failures), tuple(removals))


# ---------------------------------------------------------------------------
# outside input: one file read, one CSV grammar and one number rule


def load_input(path, parse, parse_json=None):
    """Parse a UTF-8 file with ``parse``, or with ``parse_json`` when one is given
    and the file's first non-blank character is ``{``.

    A file that is not UTF-8 raises :class:`CensoringError`, and so does any
    other ``ValueError`` or ``RecursionError`` of the parse: invalid JSON, an
    integer too long to convert, or nesting too deep for the decoder.
    """
    try:
        text = Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise CensoringError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if parse_json is not None and text.lstrip().startswith("{"):
        parse = parse_json
    try:
        return parse(text)
    except CensoringError:
        raise
    except (ValueError, RecursionError) as exc:
        raise CensoringError(f"{path}: {exc}") from None


def csv_rows(text: str, header) -> list[list]:
    """The data rows of a CSV text.

    Blank lines and lines starting with ``#`` are skipped.  The first line
    left must equal ``header`` and every later one must be as wide, or
    :class:`CensoringError` is raised.  Cells are trimmed of spaces; a data
    cell that ``int()`` reads becomes an ``int``, so long integers stay exact,
    one that ``float()`` reads becomes a ``float``, and any other stays text.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    try:
        rows = [[cell.strip() for cell in row] for row in csv.reader(lines)]
    except csv.Error as exc:
        raise CensoringError(f"unreadable CSV: {exc}") from None
    if not rows or rows[0] != list(header):
        raise CensoringError(f"expected header '{','.join(header)}'")
    for row in rows[1:]:
        if len(row) != len(header):
            raise CensoringError(f"expected {len(header)} columns per row, got {row!r}")
    return [[_number(cell) for cell in row] for row in rows[1:]]


def _number(cell: str) -> int | float | str:
    for parse in (int, float):
        try:
            return parse(cell)
        except ValueError:
            pass
    return cell


def as_int(value, what: str, low: int = 0, high: float = math.inf) -> int:
    """``value`` as an ``int`` in [low, high): integral, not a ``bool`` or text."""
    try:
        if not isinstance(value, bool) and value == int(value) and low <= value < high:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise CensoringError(f"{what} must be an integer in [{low}, {high}), got {value!r}")


def as_real(value, what: str) -> float:
    """``value`` as a finite ``float``: a real number, not ±inf, nan, a ``bool`` or text."""
    try:
        if not isinstance(value, (bool, str, bytes)) and math.isfinite(x := float(value)):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise CensoringError(f"{what} must be a finite real number, got {value!r}")
