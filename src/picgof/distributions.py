"""Lifetime models: the uniform null, parametric alternatives on [0, 1],
tabulated CDFs, and re-timing a design through a hypothesized model.

Testing a sample against an arbitrary fully specified continuous CDF F0
reduces to the uniformity test: map every inspection time through F0 and test
the (unchanged) counts on the transformed design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CensoringError, FamilySyntaxError
from .gof import StatisticSet, compute_statistics
from .reliability import deviations
from .schemes import (
    CensoredSample, CensoringScheme, _items, _model_values, as_real, csv_rows, load_input
)

#: Parameter grids used by the power-curve command when none is given.
DEFAULT_PARAMETER_GRIDS: dict[str, tuple[float, ...]] = {
    "lehmann": tuple(float(a) for a in np.linspace(0.25, 3.0, 21)),
    "centered": tuple(float(b) for b in np.linspace(0.25, 3.0, 21)),
    "compressed": tuple(float(g) for g in np.linspace(0.0, 0.4, 17)),
}

FAMILY_KINDS = ("uniform", *DEFAULT_PARAMETER_GRIDS)


@dataclass(frozen=True)
class TabulatedCdf:
    """A CDF given on a finite grid, evaluated by monotone linear interpolation.

    Queries outside the grid clamp to the end values.  As a model it reads
    like a family: its ``kind`` is ``"custom"`` and it has no ``parameter``.
    """

    xs: tuple[float, ...]
    values: tuple[float, ...]
    kind = "custom"
    parameter = None

    def __post_init__(self) -> None:
        xs = tuple(as_real(x, "x") for x in _items(self.xs, "x grid must be a sequence of reals"))
        values = tuple(as_real(v, "cdf value")
                       for v in _items(self.values, "cdf values must be a sequence of reals"))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        if len(xs) != len(values):
            raise CensoringError("x grid and cdf values differ in length")
        if len(xs) < 2:
            raise CensoringError("a tabulated cdf needs at least two points")
        if any(not b > a for a, b in zip(xs, xs[1:])):
            raise CensoringError("x grid must be strictly increasing")
        if any(b < a for a, b in zip(values, values[1:])):
            raise CensoringError("tabulated cdf values must be nondecreasing")
        if not all(0.0 <= v <= 1.0 for v in values):
            raise CensoringError("tabulated cdf values must lie in [0, 1]")

    def __call__(self, x: float) -> float:
        return float(np.interp(x, self.xs, self.values))

    @classmethod
    def from_csv(cls, text: str) -> "TabulatedCdf":
        """Parse two-column CSV with header ``x,cdf`` (grammar of :func:`csv_rows`)."""
        rows = csv_rows(text, ("x", "cdf"))
        return cls(tuple(x for x, _ in rows), tuple(v for _, v in rows))


@dataclass(frozen=True)
class AlternativeFamily:
    """A lifetime model usable as a simulation source or a hypothesized null.

    Kinds and their CDFs on [0, 1]:

    - ``uniform``: F(x) = x
    - ``lehmann``: F(x) = x ** a, a > 0 (a < 1 pushes mass early, a > 1 late)
    - ``centered``: F(x) = (2x)**b / 2 below 1/2, mirrored above; b > 0
      (b > 1 concentrates mass at the center, b < 1 at the edges)
    - ``compressed``: uniform on [g, 1 - g], 0 <= g < 1/2

    Families evaluate to 0 below their support and 1 above it; the three
    parametric families coincide with the uniform exactly at a = 1, b = 1,
    g = 0.
    """

    kind: str
    parameter: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise CensoringError(f"unknown family {self.kind!r}, expected one of {FAMILY_KINDS}")
        if self.parameter is not None:
            object.__setattr__(self, "parameter", as_real(self.parameter, f"{self.kind} parameter"))
        p = self.parameter
        if self.kind == "uniform":
            if p is not None:
                raise CensoringError(f"uniform takes no parameter, got {p!r}")
        elif self.kind in ("lehmann", "centered"):
            if p is None or not p > 0.0:
                raise CensoringError(f"{self.kind} parameter must be > 0, got {p!r}")
        else:  # compressed
            if p is None or not 0.0 <= p < 0.5:
                raise CensoringError(f"compressed parameter must lie in [0, 0.5), got {p!r}")

    def __call__(self, x: float) -> float:
        """Evaluate the CDF at a point; any x outside [0, 1] clamps to the
        boundary value."""
        x = float(x)
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        if self.kind == "uniform":
            return x
        p = self.parameter
        if self.kind == "lehmann":
            return x**p
        if self.kind == "centered":
            if x <= 0.5:
                return 0.5 * (2.0 * x) ** p
            return 1.0 - 0.5 * (2.0 * (1.0 - x)) ** p
        # compressed: uniform on [g, 1 - g]
        if x < p:
            return 0.0
        if x > 1.0 - p:
            return 1.0
        return min((x - p) / (1.0 - 2.0 * p), 1.0)  # (x - g) rounds above 1 - 2g at x = 1 - g


UNIFORM = AlternativeFamily("uniform")


def parse_family(spec: str) -> AlternativeFamily | TabulatedCdf:
    """Parse a family spec string.

    Accepted forms: ``uniform``, ``lehmann:2.0``, ``centered:0.5``,
    ``compressed:0.25``, and ``table:<csv path>``, which gives the
    :class:`TabulatedCdf` read from that file.
    A malformed spec raises :class:`FamilySyntaxError` before any file is
    read; a well-formed one with a parameter outside its family's domain
    raises :class:`CensoringError`.
    """
    kind, sep, arg = spec.partition(":")
    kind = kind.strip()
    if kind == "uniform":
        if sep:
            raise FamilySyntaxError(f"uniform takes no parameter, got {spec!r}")
        return UNIFORM
    if kind == "table":
        if not arg:
            raise FamilySyntaxError("table form is 'table:<csv path>'")
        return load_input(arg, TabulatedCdf.from_csv)
    if kind in DEFAULT_PARAMETER_GRIDS:
        try:
            value = float(arg)
        except ValueError:
            raise FamilySyntaxError(
                f"{kind} needs a numeric parameter, e.g. '{kind}:0.5', got {spec!r}"
            ) from None
        return AlternativeFamily(kind, parameter=value)
    raise FamilySyntaxError(f"unknown family {kind!r} in {spec!r}")


def transform_scheme(scheme: CensoringScheme, f0: Callable[[float], float]) -> CensoringScheme:
    """Map every inspection time of a design through a hypothesized CDF.

    The result lives on the probability scale and keeps the original
    withdrawal percentages.  F0 must be 0 at time 0 and strictly increasing
    across the inspection times; ties raise :class:`CensoringError` because
    a flat stretch makes two inspections indistinguishable under the model.
    """
    new_times = _model_values(scheme, f0)
    for s, t, a, b in zip(scheme.times, scheme.times[1:], new_times, new_times[1:]):
        if a == b:
            raise CensoringError(f"hypothesized cdf is flat between t = {s!r} and t = {t!r}")
    return CensoringScheme(tuple(new_times), scheme.percentages)


def test_general(sample: CensoredSample, f0: Callable[[float], float]) -> StatisticSet:
    """Statistics for testing a sample against an arbitrary fully specified
    continuous model F0.

    Equal, bit for bit, to the uniformity test of the same counts on the
    design re-timed through F0 (:func:`transform_scheme`, which also checks
    that F0 can re-time it), since 1 - UNIFORM(F0(t)) is 1 - F0(t) there.
    Calibrate critical values or p-values on that re-timed design.
    """
    transform_scheme(sample.scheme, f0)
    return compute_statistics(deviations(sample, f0))
