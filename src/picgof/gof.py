"""Test statistics summarizing a deviation vector, and rejection decisions."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import CensoringError
from .schemes import CensoringScheme, as_real

if TYPE_CHECKING:
    from .montecarlo import CriticalValueTable

#: Canonical statistic order used everywhere (CSV columns, arrays, dicts).
STAT_NAMES = ("c_plus", "c_minus", "c", "k", "t1", "t2")


class StatisticSet(NamedTuple):
    """The six goodness-of-fit statistics of one sample, a row in STAT_NAMES order.

    ``c_plus``/``c_minus`` are the largest signed deviations up and down
    (either can be negative), ``c`` is their maximum, ``k`` their sum,
    ``t1`` the mean squared deviation and ``t2`` the mean absolute deviation.
    Large values speak against the hypothesized model.
    """

    c_plus: float
    c_minus: float
    c: float
    k: float
    t1: float
    t2: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)


def fold_deviations(d) -> np.ndarray:
    """Raw statistics (rows x 6, STAT_NAMES order) of a (rows x m) deviation array, m >= 1, as
    a view of (6 x rows): the intervals, rows of ``d.T``, fold in place left to right, so each
    row has a left-to-right scalar loop's bits."""
    d = np.asarray(d, dtype=float)
    out = np.zeros((6, len(d)))
    c_plus, c_minus, c, k, s1, s2 = out
    c_plus[...], c_minus[...] = d[:, 0], -d[:, 0]
    for x in d.T:
        np.copyto(c_plus, x, where=x > c_plus)  # not np.maximum, which breaks ties of +-0 apart
        np.copyto(c_minus, -x, where=-x > c_minus)
        s1 += x * x
        s2 += np.abs(x)
    c[...], k[...] = np.where(c_minus > c_plus, c_minus, c_plus), c_plus + c_minus
    out[4:] /= d.shape[1]
    return out.T


def compute_statistics(d: Sequence[float]) -> StatisticSet:
    """All six statistics of a deviation vector, one or more reals read by :func:`as_real`."""
    if not np.iterable(d):
        raise CensoringError(f"a deviation vector must be a sequence of reals, got {d!r}")
    d = [as_real(v, "deviation") for v in d]
    if not d:
        raise CensoringError("cannot summarize an empty deviation vector")
    return StatisticSet(*fold_deviations([d])[0].tolist())


def _as_row(observed) -> list[float]:
    """``observed`` as six floats in STAT_NAMES order, each read by :func:`as_real`."""
    if not np.iterable(observed) or len(row := list(observed)) != len(STAT_NAMES):
        raise CensoringError(f"a row of statistics needs {len(STAT_NAMES)} values, got {observed!r}")
    return [as_real(v, f"statistic {name}") for name, v in zip(STAT_NAMES, row)]


def reject(
    observed: Sequence[float],
    critical: "CriticalValueTable",
    *,
    scheme: CensoringScheme | None = None,
    n: int | None = None,
) -> dict[str, bool]:
    """Per-statistic upper-tail rejection decisions for a row of six statistics.

    ``observed`` is any six reals in STAT_NAMES order: a :class:`StatisticSet`,
    tuple, list or array.  Only strict exceedance rejects, not a tie.  Pass
    ``scheme`` and/or ``n`` to have them checked by :meth:`CriticalValueTable.check_design`;
    a mismatch raises :class:`CensoringError` instead of comparing across designs.
    """
    critical.check_design(scheme, n)
    return {name: v > critical.values[name] for name, v in zip(STAT_NAMES, _as_row(observed))}
