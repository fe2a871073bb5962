"""Test statistics summarizing a deviation vector, and rejection decisions."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import CensoringError
from .schemes import CensoringScheme, _items, as_real

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


def _start(rows: int) -> np.ndarray:
    """(6 x ``rows``) accumulators before the first interval, for :func:`_fold`: the largest
    d and -d at -inf, which every finite deviation replaces, and the other four rows at 0."""
    return np.repeat([[-np.inf], [-np.inf], [0.0], [0.0], [0.0], [0.0]], rows, axis=1)


def _fold(stats, d) -> None:
    """Fold finite deviations ``d``, one interval of every row, into (6 x rows) accumulators
    ``stats`` from :func:`_start`, in place: the largest d and -d, and the sums of d * d and |d|."""
    c_plus, c_minus, _, _, s1, s2 = stats
    np.copyto(c_plus, d, where=d > c_plus)  # not np.maximum, which breaks ties of +-0 apart
    np.copyto(c_minus, -d, where=-d > c_minus)
    s1 += d * d
    s2 += np.abs(d)


def _finish(stats, m: int) -> np.ndarray:
    """The statistics (rows x 6, STAT_NAMES order) of accumulators that :func:`_fold` filled
    over ``m`` intervals, as a view of ``stats``, which is finished in place."""
    c_plus, c_minus, c, k, _, _ = stats
    c[...], k[...] = np.where(c_minus > c_plus, c_minus, c_plus), c_plus + c_minus
    stats[4:] /= m
    return stats.T


def compute_statistics(d: Sequence[float]) -> StatisticSet:
    """All six statistics of a deviation vector, one or more reals read by :func:`as_real`."""
    d = [as_real(v, "deviation")
         for v in _items(d, "a deviation vector must be a sequence of reals")]
    if not d:
        raise CensoringError("cannot summarize an empty deviation vector")
    stats = _start(1)
    for x in d:
        _fold(stats, x)
    return StatisticSet(*_finish(stats, len(d))[0].tolist())


def _as_row(observed) -> list[float]:
    """``observed`` as six floats in STAT_NAMES order, each read by :func:`as_real`."""
    message = f"a row of statistics needs {len(STAT_NAMES)} values"
    if len(row := _items(observed, message)) != len(STAT_NAMES):
        raise CensoringError(f"{message}, got {observed!r}")
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
